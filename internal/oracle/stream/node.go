package stream

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/oracle"
	"dvmc/internal/sim"
	"dvmc/internal/trace"
)

// commitEnt is one committed-but-unperformed operation, the reference
// checker's commitRec keyed by sequence number. Nodes keep these in an
// ascending slice instead of a map: commits arrive in near-monotonic
// sequence order, so insertion is an append, the R2 scan is a slice walk
// in exactly the ascending order the reference gets from sorting its map
// keys, and pruning on perform is a memmove.
type commitEnt struct {
	seq    uint64
	op     consistency.Op
	isRMW  bool
	model  consistency.Model
	addr   mem.Addr
	val    mem.Word
	hasVal bool
	time   sim.Cycle
}

// perfRec is a performed operation still in the R1 pending window.
type perfRec struct {
	seq   uint64
	op    consistency.Op
	isRMW bool
}

// nodeState is one processor's ordering state: exactly the per-node
// structures the reference keeps for R1/R2/R4/R5, in bounded form.
type nodeState struct {
	committed []commitEnt // ascending by seq
	performed seqSet
	window    []perfRec
	maxCommit uint64
}

// node returns the state that judges ev. An event for an out-of-range
// processor is flagged and judged against node 0, as the reference does.
//
//dvmc:hotpath
func (c *Checker) node(idx uint64, ev *trace.Event) *nodeState {
	n := int(ev.Node)
	if n >= len(c.nodes) {
		//dvmc:alloc-ok violation path
		c.violate(idx, oracle.RuleStructural, ev, fmt.Sprintf("event for node %d but trace header declares %d nodes", n, len(c.nodes)))
		n = 0
	}
	return &c.nodes[n]
}

// findCommitted binary-searches the ascending committed slice.
func (ns *nodeState) findCommitted(seq uint64) (int, bool) {
	lo, hi := 0, len(ns.committed)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns.committed[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ns.committed) && ns.committed[lo].seq == seq
}

//dvmc:hotpath
func (c *Checker) commit(idx uint64, ev *trace.Event) {
	ns := c.node(idx, ev)
	switch ev.Class {
	case consistency.Load:
		c.stats.Loads++
	case consistency.Store:
		if ev.IsRMW {
			c.stats.RMWs++
		} else {
			c.stats.Stores++
		}
	case consistency.Membar:
		c.stats.Membars++
	}
	pos, dup := ns.findCommitted(ev.Seq)
	if dup || ns.performed.contains(ev.Seq) {
		c.violate(idx, oracle.RuleStructural, ev, "double commit of sequence number")
		return
	}
	//dvmc:alloc-ok frontier slice keeps its high-water capacity; grows only while the in-flight frontier does
	ns.committed = append(ns.committed, commitEnt{})
	copy(ns.committed[pos+1:], ns.committed[pos:])
	ns.committed[pos] = commitEnt{
		seq: ev.Seq, op: ev.Op(), isRMW: ev.IsRMW, model: ev.Model,
		addr: ev.Addr, val: ev.Val, time: ev.Time,
		hasVal: ev.Class == consistency.Store && !ev.IsRMW,
	}
	if ev.Seq > ns.maxCommit {
		ns.maxCommit = ev.Seq
	}
	c.frontierAdd(1)
}

//dvmc:hotpath
func (c *Checker) perform(idx uint64, ev *trace.Event) {
	ns := c.node(idx, ev)
	op := ev.Op()
	pos, wasCommitted := ns.findCommitted(ev.Seq)
	var rec commitEnt
	switch {
	case wasCommitted:
		rec = ns.committed[pos]
		//dvmc:alloc-ok deletes in place: the result is one shorter than the slice it aliases
		ns.committed = append(ns.committed[:pos], ns.committed[pos+1:]...)
		c.frontierAdd(-1)
	case ns.performed.contains(ev.Seq):
		c.violate(idx, oracle.RuleStructural, ev, "double perform of sequence number")
	default:
		c.violate(idx, oracle.RuleStructural, ev, "perform without prior commit")
	}
	//dvmc:alloc-ok interval set is one run per recovery epoch on legal traces; grows by one per anomaly
	ns.performed.add(ev.Seq)

	// R5: a plain store must perform with exactly the committed value.
	if wasCommitted && rec.hasVal && ev.Class == consistency.Store && !ev.IsRMW && ev.Val != rec.val {
		//dvmc:alloc-ok violation path
		c.violate(idx, oracle.RuleStoreValue, ev,
			fmt.Sprintf("store committed %#x but performed %#x at %#x", uint64(rec.val), uint64(ev.Val), uint64(ev.Addr)))
	}

	// R2: must not overtake an older committed-but-unperformed ordered op.
	// The slice is ascending, matching the reference's sorted-key scan, so
	// the older ops are a prefix of it.
	for j := range ns.committed {
		old := &ns.committed[j]
		if old.seq >= ev.Seq {
			break
		}
		c.stats.PairChecks++
		if oracle.OrderedPair(consistency.TableFor(old.model), old.op, old.isRMW, op, ev.IsRMW) {
			//dvmc:alloc-ok violation path
			c.violate(idx, oracle.RuleOvertaken, ev,
				fmt.Sprintf("%v performed before older ordered %v seq %d (committed @%d, model %v)",
					ev.Class, old.op.Class, old.seq, old.time, old.model))
		}
	}

	// R1: must not have been overtaken by a younger performed ordered op.
	table := consistency.TableFor(ev.Model)
	for j := range ns.window {
		p := &ns.window[j]
		if p.seq <= ev.Seq {
			continue
		}
		c.stats.PairChecks++
		if oracle.OrderedPair(table, op, ev.IsRMW, p.op, p.isRMW) {
			//dvmc:alloc-ok violation path
			c.violate(idx, oracle.RuleReorder, ev,
				fmt.Sprintf("%v overtaken by younger performed %v seq %d (model %v)",
					ev.Class, p.op.Class, p.seq, ev.Model))
		}
	}

	// R3 (loads and the RMW old value).
	c.performValue(idx, ev)

	// Window bookkeeping and frontier pruning, exactly the reference's rule:
	// entries at or below the oldest committed-but-unperformed seq (or the
	// newest committed seq when nothing is pending) can never pair again.
	//dvmc:alloc-ok reorder window keeps its pruned high-water capacity
	ns.window = append(ns.window, perfRec{seq: ev.Seq, op: op, isRMW: ev.IsRMW})
	if len(ns.window) > c.stats.MaxWindow {
		c.stats.MaxWindow = len(ns.window)
	}
	frontier := ns.maxCommit
	if len(ns.committed) > 0 {
		frontier = ns.committed[0].seq
	}
	kept := ns.window[:0]
	for _, p := range ns.window {
		if p.seq > frontier {
			//dvmc:alloc-ok filters in place: kept never outgrows the window it aliases
			kept = append(kept, p)
		}
	}
	ns.window = kept
}

// recover handles a SafetyNet rollback marker, mirroring the reference's
// recover: every node's pending committed store values become legitimate
// for later loads (a store may have drained just before the rollback with
// its perform record lost), then the R2 pending sets and R1 windows clear.
// performed and maxCommit survive, as in the reference.
//
//dvmc:hotpath
func (c *Checker) recover() {
	c.stats.Recoveries++
	for i := range c.nodes {
		ns := &c.nodes[i]
		for j := range ns.committed {
			if rec := &ns.committed[j]; rec.hasVal {
				c.recovered.add(wkey{addr: rec.addr, val: rec.val})
			}
		}
		c.frontierAdd(-len(ns.committed))
		ns.committed = ns.committed[:0]
		ns.window = ns.window[:0]
	}
}

// frontierAdd tracks the global committed-but-unperformed population.
func (c *Checker) frontierAdd(d int) {
	c.frontier += int64(d)
	if c.frontier > c.maxFrontier {
		c.maxFrontier = c.frontier
	}
}
