package core

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// ReorderChecker dynamically verifies the Allowable Reordering invariant
// (Section 4.2): every reordering between program order and perform order
// must be permitted by the active consistency model's ordering table.
//
// The checker maintains a counter max{OPx} per operation type holding the
// greatest sequence number of a performed operation of that type; membars
// get one counter per mask bit. When an operation X of type OPx performs,
// the checker verifies seqX > max{OPy} for every type OPy with an
// ordering constraint OPx < OPy: if a younger OPy had already performed,
// X was illegally overtaken.
//
// Lost operations (committed but never performed) are detected at membars
// by comparing committed and performed counters; the processor injects an
// artificial full membar periodically (about one per 100k cycles) to
// bound detection latency.
//
// SPARC v9 specifics (Section 4.2): dynamic switching of consistency
// models is supported by evaluating each operation against the table of
// the model it was decoded under, and membar ordering requirements are
// computed from the instruction's 4-bit mask.
type ReorderChecker struct {
	node network.NodeID
	sink Sink

	maxLoad   uint64
	maxStore  uint64
	maxMembar [4]uint64 // per mask bit: LL, LS, SL, SS

	committedLoads, committedStores uint64
	performedLoads, performedStores uint64

	// pending is the committed counters of the one membar committed and
	// not yet performed: a membar commits and performs at the ROB head,
	// so no second one can commit before it performs.
	pending struct {
		seq           uint64
		loads, stores uint64
		valid         bool
	}

	stats ReorderStats
}

// ReorderStats counts checker activity.
type ReorderStats struct {
	OpsChecked      uint64
	MembarsChecked  uint64
	Violations      uint64
	LostOps         uint64
	InjectedMembars uint64
}

// PerformedOp describes one operation at its perform point.
type PerformedOp struct {
	Seq   uint64
	Class consistency.OpClass
	Mask  consistency.MembarMask // membars only
	IsRMW bool                   // atomic: must satisfy both Load and Store constraints
	Model consistency.Model      // model the op was decoded under
}

// NewReorderChecker builds the checker for one processor.
func NewReorderChecker(node network.NodeID, sink Sink) *ReorderChecker {
	return new(ReorderChecker).init(node, sink)
}

// init makes r what NewReorderChecker builds.
func (r *ReorderChecker) init(node network.NodeID, sink Sink) *ReorderChecker {
	*r = ReorderChecker{node: node, sink: sink}
	return r
}

// Stats returns checker counters.
func (r *ReorderChecker) Stats() ReorderStats { return r.stats }

// Reset clears commit/perform accounting and the pending membar (SafetyNet
// recovery). The max{OP} registers are preserved: sequence numbers stay
// monotonic across recoveries, so stale maxima can never flag the
// re-executed stream.
func (r *ReorderChecker) Reset() {
	r.committedLoads, r.committedStores = 0, 0
	r.performedLoads, r.performedStores = 0, 0
	r.pending.valid = false
}

// OpCommitted records an operation's commit for lost-op accounting.
func (r *ReorderChecker) OpCommitted(class consistency.OpClass, isRMW bool) {
	switch {
	case isRMW:
		r.committedLoads++
		r.committedStores++
	case class == consistency.Load:
		r.committedLoads++
	case class == consistency.Store:
		r.committedStores++
	}
}

// MembarCommitted records the committed counters for a membar; the
// record is consumed when the membar performs.
func (r *ReorderChecker) MembarCommitted(seq uint64, injected bool) {
	r.pending.seq, r.pending.loads, r.pending.stores, r.pending.valid = seq, r.committedLoads, r.committedStores, true
	if injected {
		r.stats.InjectedMembars++
	}
}

// bitIndex maps a single mask bit to its counter slot.
func bitIndex(bit consistency.MembarMask) int {
	switch bit {
	case consistency.LL:
		return 0
	case consistency.LS:
		return 1
	case consistency.SL:
		return 2
	case consistency.SS:
		return 3
	default:
		panic(fmt.Sprintf("core: bitIndex of non-single-bit mask %v", bit))
	}
}

var maskBits = [...]consistency.MembarMask{consistency.LL, consistency.LS, consistency.SL, consistency.SS}

// OpPerformed runs the reordering check for an operation at its perform
// point and updates the max counters. Violations are reported to the sink.
func (r *ReorderChecker) OpPerformed(op PerformedOp, now sim.Cycle) {
	r.stats.OpsChecked++
	table := consistency.TableFor(op.Model)
	classes := []consistency.OpClass{op.Class}
	if op.IsRMW {
		classes = []consistency.OpClass{consistency.Load, consistency.Store}
	}
	for _, cl := range classes {
		r.checkClass(op, cl, table, now)
	}
	// Update max counters.
	for _, cl := range classes {
		switch cl {
		case consistency.Load:
			if op.Seq > r.maxLoad {
				r.maxLoad = op.Seq
			}
			r.performedLoads++
		case consistency.Store:
			if op.Seq > r.maxStore {
				r.maxStore = op.Seq
			}
			r.performedStores++
		case consistency.Membar:
			for _, bit := range maskBits {
				if op.Mask&bit != 0 && op.Seq > r.maxMembar[bitIndex(bit)] {
					r.maxMembar[bitIndex(bit)] = op.Seq
				}
			}
		}
	}
	if op.Class == consistency.Membar {
		r.checkLostOps(op, now)
	}
}

// checkClass verifies seqX > max{OPy} for all OPy ordered after cl.
func (r *ReorderChecker) checkClass(op PerformedOp, cl consistency.OpClass, table *consistency.Table, now sim.Cycle) {
	self := consistency.Op{Class: cl, Mask: op.Mask}
	// OPy = Load.
	if table.Ordered(self, consistency.Op{Class: consistency.Load}) && op.Seq <= r.maxLoad {
		r.violate(op, now, fmt.Sprintf("%v seq %d performed after younger load (max %d)", cl, op.Seq, r.maxLoad))
	}
	// OPy = Store.
	if table.Ordered(self, consistency.Op{Class: consistency.Store}) && op.Seq <= r.maxStore {
		r.violate(op, now, fmt.Sprintf("%v seq %d performed after younger store (max %d)", cl, op.Seq, r.maxStore))
	}
	// OPy = Membar with bit b: the constraint exists for membars whose
	// mask intersects the table entry, tracked per bit. (For membar-vs-
	// membar the table keeps a conservative total order.)
	cell := table.ConstraintMask(cl, consistency.Membar)
	if cl == consistency.Membar {
		cell &= consistency.MembarMask(0xf) // all bits; masks already encode it
	}
	for _, bit := range maskBits {
		if cell&bit == 0 {
			continue
		}
		if op.Seq <= r.maxMembar[bitIndex(bit)] {
			r.violate(op, now, fmt.Sprintf("%v seq %d performed after younger membar %v (max %d)",
				cl, op.Seq, bit, r.maxMembar[bitIndex(bit)]))
		}
	}
}

// checkLostOps compares committed and performed counters at a membar.
func (r *ReorderChecker) checkLostOps(op PerformedOp, now sim.Cycle) {
	r.stats.MembarsChecked++
	snap := &r.pending
	if !snap.valid || snap.seq != op.Seq {
		return
	}
	snap.valid = false
	if op.Mask&(consistency.LL|consistency.LS) != 0 && r.performedLoads < snap.loads {
		r.stats.LostOps++
		r.sink.Violation(Violation{Kind: LostOperation, Node: r.node, Cycle: now,
			Detail: fmt.Sprintf("membar seq %d: %d loads committed but only %d performed",
				op.Seq, snap.loads, r.performedLoads)})
	}
	if op.Mask&(consistency.SL|consistency.SS) != 0 && r.performedStores < snap.stores {
		r.stats.LostOps++
		r.sink.Violation(Violation{Kind: LostOperation, Node: r.node, Cycle: now,
			Detail: fmt.Sprintf("membar seq %d: %d stores committed but only %d performed",
				op.Seq, snap.stores, r.performedStores)})
	}
}

// Stuck reports a committed operation that never performs (pipeline
// hang after a lost protocol message): the lost-operation invariant with
// watchdog-bounded latency.
func (r *ReorderChecker) Stuck(now sim.Cycle, detail string) {
	r.stats.LostOps++
	r.sink.Violation(Violation{Kind: OperationTimeout, Node: r.node, Cycle: now, Detail: detail})
}

func (r *ReorderChecker) violate(op PerformedOp, now sim.Cycle, detail string) {
	r.stats.Violations++
	r.sink.Violation(Violation{Kind: ReorderViolation, Node: r.node, Cycle: now, Detail: detail})
}
