// Package oracle is the reference implementation of the offline
// consistency referee: an independent, polynomial-time checker that replays
// a captured execution trace against the internal/consistency ordering
// tables and re-derives the verdict the online DVMC checkers reached during
// the run. The product does not run it: dvmc-stat, the fuzzer and the farm
// get their verdicts from internal/oracle/stream, which applies the same
// rules one event at a time and is held byte for byte to this package's
// reports. Check and CheckBytes have no callers outside test files and
// benchmark/; what both engines share is the vocabulary (Rule, Violation,
// Stats, Report) and the ordering relation OrderedPair.
//
// It exists for differential verification (cf. Roy et al., "Fast and
// Generalized Polynomial Time Memory Consistency Verification", and Ravi
// et al., "QED"): on a fault-free run both the online checkers and the
// oracle must stay silent; on an injected-fault run both must flag. The
// oracle shares only the ordering tables with the online implementation —
// its algorithm (a pending-window pairwise scan, rather than max{OP}
// counters and a verification cache) is deliberately different, so a bug
// in either implementation surfaces as disagreement.
//
// Checks, per node unless noted:
//
//	R1  reorder        — a performing op was overtaken by a younger,
//	                     already-performed op its model orders after it.
//	R2  overtaken      — a performing op overtakes an older committed-but-
//	                     unperformed op that its model requires first
//	                     (also catches lost stores at the next membar,
//	                     mirroring the online lost-operation check).
//	R3  load value     — a non-forwarded load (or RMW old value) bound a
//	                     value no processor ever wrote (global check).
//	R4  structural     — perform without commit, double commit/perform.
//	R5  store value    — a store performed with a value different from the
//	                     one it committed (write-buffer datapath fault).
//
// Soundness against false positives is the hard part: speculation,
// store-forwarding, write-combining, value-update recovery, and SafetyNet
// rollback all produce legal traces that a naive checker would flag. The
// per-check comments record why each rule tolerates them.
package oracle

import (
	"fmt"
	"sort"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
	"dvmc/internal/trace"
)

// Rule identifies which oracle check flagged a violation.
type Rule string

// The oracle's rules.
const (
	RuleReorder    Rule = "R1-reorder"
	RuleOvertaken  Rule = "R2-overtaken"
	RuleLoadValue  Rule = "R3-load-value"
	RuleStructural Rule = "R4-structural"
	RuleStoreValue Rule = "R5-store-value"
)

// Violation is one oracle finding.
type Violation struct {
	Rule   Rule
	Node   int
	Seq    uint64
	Time   sim.Cycle
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] node %d seq %d @%d: %s", v.Rule, v.Node, v.Seq, v.Time, v.Detail)
}

// Stats counts oracle activity, for reporting and tests.
type Stats struct {
	Events           uint64
	Loads            uint64
	Stores           uint64
	Membars          uint64
	RMWs             uint64
	Recoveries       uint64
	PairChecks       uint64 // R1/R2 ordering-table queries
	ValueChecks      uint64 // R3 legality queries
	SkippedForwarded uint64 // forwarded loads exempt from R3
	MaxWindow        int    // largest per-node pending window
	UnperformedAtEnd int    // committed ops still unperformed when the trace ends
}

// Report is the oracle's verdict on one trace.
type Report struct {
	Meta       trace.Meta
	Violations []Violation
	Stats      Stats
}

// Clean reports whether the oracle found no violations.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// commitRec is a committed-but-unperformed operation.
type commitRec struct {
	op     consistency.Op
	isRMW  bool
	model  consistency.Model
	addr   mem.Addr
	val    mem.Word
	hasVal bool // plain stores: the committed value, for R5
	time   sim.Cycle
}

// perfRec is a performed operation still in the R1 pending window.
type perfRec struct {
	seq   uint64
	op    consistency.Op
	isRMW bool
}

// nodeState is the oracle's per-processor state.
type nodeState struct {
	committed    map[uint64]commitRec
	performed    map[uint64]bool
	window       []perfRec // performed ops, ascending seq not guaranteed
	maxCommitSeq uint64
}

// checker replays one trace. Built by Check; not exported because the
// value-plausibility pass needs the complete trace up front.
type checker struct {
	meta       trace.Meta
	nodes      []*nodeState
	writers    map[mem.Addr]map[mem.Word]uint64 // value -> node bitmask, whole trace
	violations []Violation
	stats      Stats
}

// CheckBytes decodes and checks a binary trace.
func CheckBytes(data []byte) (*Report, error) {
	meta, events, err := trace.Decode(data)
	if err != nil {
		return nil, err
	}
	return Check(meta, events), nil
}

// Check replays events (in capture order) against the ordering tables and
// returns the oracle's verdict. Two passes: the first collects every value
// each node ever wrote (R3's legality sets are over the whole trace so
// that same-cycle callback interleavings cannot flag a racing reader); the
// second runs the ordering, structural, and value checks in stream order.
func Check(meta trace.Meta, events []trace.Event) *Report {
	c := &checker{
		meta:    meta,
		writers: make(map[mem.Addr]map[mem.Word]uint64),
	}
	n := meta.Nodes
	if n < 1 {
		n = 1
	}
	c.nodes = make([]*nodeState, n)
	for i := range c.nodes {
		c.nodes[i] = &nodeState{
			committed: make(map[uint64]commitRec),
			performed: make(map[uint64]bool),
		}
	}
	// Pass 1: writer sets.
	for _, ev := range events {
		if ev.Kind == trace.EvPerform && ev.Class == consistency.Store {
			m := c.writers[ev.Addr]
			if m == nil {
				m = make(map[mem.Word]uint64)
				c.writers[ev.Addr] = m
			}
			m[ev.Val] |= nodeBit(ev.Node)
		}
	}
	// Pass 2: checks.
	for _, ev := range events {
		c.feed(ev)
	}
	for _, ns := range c.nodes {
		c.stats.UnperformedAtEnd += len(ns.committed)
	}
	return &Report{Meta: meta, Violations: c.violations, Stats: c.stats}
}

// nodeBit returns the writer-bitmask bit for a node (clamped at 64 nodes;
// the simulator never exceeds that).
func nodeBit(node uint8) uint64 {
	if node > 63 {
		node = 63
	}
	return 1 << node
}

func (c *checker) node(ev trace.Event) *nodeState {
	i := int(ev.Node)
	if i >= len(c.nodes) {
		// Tolerated structurally so one bad event cannot panic the oracle;
		// flagged as R4.
		c.violate(RuleStructural, ev, fmt.Sprintf("event for node %d but trace header declares %d nodes", i, len(c.nodes)))
		return c.nodes[0]
	}
	return c.nodes[i]
}

func (c *checker) violate(rule Rule, ev trace.Event, detail string) {
	c.violations = append(c.violations, Violation{
		Rule: rule, Node: int(ev.Node), Seq: ev.Seq, Time: ev.Time, Detail: detail,
	})
}

func (c *checker) feed(ev trace.Event) {
	switch ev.Kind {
	case trace.EvCheckpoint, trace.EvViolation, trace.EvFault:
		return // an annotation: judged by nothing, counted as no event
	case trace.EvRecover:
		c.recover()
	case trace.EvCommit:
		c.commit(ev)
	case trace.EvPerform:
		c.perform(ev)
	}
	c.stats.Events++
}

// recover handles a SafetyNet rollback marker: every node's architectural
// state rewound to the recovery point. Committed-but-unperformed operations
// were discarded (they re-execute under fresh sequence numbers, which stay
// monotonic across recoveries) and values from before the checkpoint may
// legally reappear — so the R2 pending sets and R1 windows clear.
//
// R3 needs one adjustment: a store that was committed but unperformed at
// the marker may have drained into the memory system just before the
// rollback with its perform record lost to the reset (the recovery point
// can postdate the drain). Its value is then legitimately observable
// afterwards, so pending committed store values join the writer sets
// before the pending sets clear. Over-acceptance is safe; missing them
// would flag legal post-recovery reads.
func (c *checker) recover() {
	c.stats.Recoveries++
	for i, ns := range c.nodes {
		for _, rec := range ns.committed {
			if rec.hasVal {
				m := c.writers[rec.addr]
				if m == nil {
					m = make(map[mem.Word]uint64)
					c.writers[rec.addr] = m
				}
				m[rec.val] |= nodeBit(uint8(i))
			}
		}
		ns.committed = make(map[uint64]commitRec)
		ns.window = nil // pre-recovery performs can never pair with higher fresh seqs
	}
}

func (c *checker) commit(ev trace.Event) {
	ns := c.node(ev)
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
	if _, dup := ns.committed[ev.Seq]; dup || ns.performed[ev.Seq] {
		c.violate(RuleStructural, ev, "double commit of sequence number")
		return
	}
	rec := commitRec{
		op:    ev.Op(),
		isRMW: ev.IsRMW,
		model: ev.Model,
		addr:  ev.Addr,
		val:   ev.Val,
		time:  ev.Time,
		// RMW commit values are unknown until the atomic performs; loads
		// commit with their bound value but R5 applies only to stores.
		hasVal: ev.Class == consistency.Store && !ev.IsRMW,
	}
	ns.committed[ev.Seq] = rec
	if ev.Seq > ns.maxCommitSeq {
		ns.maxCommitSeq = ev.Seq
	}
}

func (c *checker) perform(ev trace.Event) {
	ns := c.node(ev)
	rec, wasCommitted := ns.committed[ev.Seq]
	switch {
	case wasCommitted:
		delete(ns.committed, ev.Seq)
	case ns.performed[ev.Seq]:
		c.violate(RuleStructural, ev, "double perform of sequence number")
	default:
		c.violate(RuleStructural, ev, "perform without prior commit")
	}
	ns.performed[ev.Seq] = true

	// R5: a plain store must perform with exactly the value it committed.
	// (Write-combining is safe: the OOO buffer reports each constituent
	// store with its own original value.)
	if wasCommitted && rec.hasVal && ev.Class == consistency.Store && !ev.IsRMW && ev.Val != rec.val {
		c.violate(RuleStoreValue, ev,
			fmt.Sprintf("store committed %#x but performed %#x at %#x", uint64(rec.val), uint64(ev.Val), uint64(ev.Addr)))
	}

	// R2: this op must not overtake an older committed-but-unperformed op
	// that the older op's model orders before it. This is also how lost
	// stores surface: a dropped store stays committed forever, and the
	// next full membar (which only performs once the write buffer claims
	// empty) trips the check — the same detection point, and latency
	// bound, as the online lost-operation check.
	for _, seq := range sortedKeys(ns.committed) {
		if seq >= ev.Seq {
			continue
		}
		old := ns.committed[seq]
		c.stats.PairChecks++
		if OrderedPair(consistency.TableFor(old.model), old.op, old.isRMW, ev.Op(), ev.IsRMW) {
			c.violate(RuleOvertaken, ev,
				fmt.Sprintf("%v performed before older ordered %v seq %d (committed @%d, model %v)",
					ev.Class, old.op.Class, seq, old.time, old.model))
		}
	}

	// R1: this op must not have been overtaken by a younger already-
	// performed op that this op's model orders after it. Mirrors the
	// online max{OP} check (evaluated, like it, under the overtaken op's
	// model) but via an explicit pairwise window.
	table := consistency.TableFor(ev.Model)
	for _, p := range ns.window {
		if p.seq <= ev.Seq {
			continue
		}
		c.stats.PairChecks++
		if OrderedPair(table, ev.Op(), ev.IsRMW, p.op, p.isRMW) {
			c.violate(RuleReorder, ev,
				fmt.Sprintf("%v overtaken by younger performed %v seq %d (model %v)",
					ev.Class, p.op.Class, p.seq, ev.Model))
		}
	}

	// R3: value plausibility for loads and for the RMW's load half.
	switch {
	case ev.Class == consistency.Load && !ev.IsRMW:
		if ev.Fwd {
			// Store-forwarded values come from the LSQ or write buffer and
			// may belong to stores that later squash: they never reach the
			// global trace, so the oracle cannot adjudicate them. The
			// online uniprocessor-ordering replay covers this path.
			c.stats.SkippedForwarded++
		} else {
			c.checkValue(ev, ev.Val)
		}
	case ev.Class == consistency.Store && ev.IsRMW:
		// The atomic's load half binds the current coherent value.
		c.checkValue(ev, ev.Val2)
	}

	// Window bookkeeping and pruning. An entry p can leave the window once
	// no later event with a smaller sequence number can perform: every op
	// below the frontier (the oldest committed-but-unperformed seq, or the
	// newest committed seq when nothing is pending) has already performed
	// or will never perform. RMO loads that perform at execute can commit
	// out of program order, so the frontier is conservative there — it can
	// prune an entry an uncommitted older RMO-mode op might pair with, but
	// RMO's table orders none of those pairs.
	ns.window = append(ns.window, perfRec{seq: ev.Seq, op: ev.Op(), isRMW: ev.IsRMW})
	if len(ns.window) > c.stats.MaxWindow {
		c.stats.MaxWindow = len(ns.window)
	}
	frontier := ns.maxCommitSeq
	for seq := range ns.committed {
		if seq < frontier {
			frontier = seq
		}
	}
	kept := ns.window[:0]
	for _, p := range ns.window {
		if p.seq > frontier {
			kept = append(kept, p)
		}
	}
	ns.window = kept
}

// checkValue is R3: a non-forwarded load (or RMW old value) must bind a
// value some processor actually wrote to the word, or zero.
//
// Deliberate tolerances (all arise on legal runs):
//   - Membership, not recency: under relaxed models a load may legally
//     return a value a newer store later replaced, and a node's own
//     buffered (committed-but-unperformed) stores are invisible to its
//     non-forwarded loads — the paper's replay path deliberately bypasses
//     the write buffer, so a load can legally bind a value older than the
//     node's own newest store. A corruption that escapes repair commits a
//     value nobody ever wrote and fails membership.
//   - Zero reads, unconditionally: every word initialises to zero, and
//     write-buffer visibility windows — an own store committed but not
//     yet drained, or draining in the cycles between the load's value
//     binding and its perform record — make a zero binding legally
//     observable at almost any point; SafetyNet rollback additionally
//     re-zeroes words whose only writes were discarded. Zero is therefore
//     the one value the oracle cannot adjudicate. (R5 keeps stores exact,
//     so a store corrupted to zero is still caught.)
func (c *checker) checkValue(ev trace.Event, v mem.Word) {
	c.stats.ValueChecks++
	if c.writers[ev.Addr][v] != 0 {
		return // some node wrote this value to the word at some point
	}
	if v == 0 {
		return // init value; see the zero-reads tolerance above
	}
	what := "load"
	if ev.IsRMW {
		what = "rmw old value"
	}
	c.violate(RuleLoadValue, ev,
		fmt.Sprintf("%s bound %#x at %#x, which no processor wrote",
			what, uint64(v), uint64(ev.Addr)))
}

// OrderedPair reports whether the table requires first (older in program
// order) to perform before second, expanding RMWs to both Load and Store
// constraints (paper Section 4). Membar-membar pairs mirror the online
// checker's conservative total order: any mask bit on the younger membar
// counts, regardless of the older one's mask.
//
// Exported because the streaming engine (internal/oracle/stream) must
// agree with the batch checker on the ordering relation itself — its
// byte-identical-report contract is over everything downstream of this
// function, so the two deliberately share it. Allocation-free: the RMW
// expansion uses value arrays, keeping it callable from zero-allocation
// per-event steps.
func OrderedPair(t *consistency.Table, first consistency.Op, firstRMW bool, second consistency.Op, secondRMW bool) bool {
	if first.Class == consistency.Membar && second.Class == consistency.Membar {
		return second.Mask != 0
	}
	fs := [2]consistency.Op{first, {Class: consistency.Store}}
	fn := 1
	if firstRMW {
		fs[0] = consistency.Op{Class: consistency.Load}
		fn = 2
	}
	ss := [2]consistency.Op{second, {Class: consistency.Store}}
	sn := 1
	if secondRMW {
		ss[0] = consistency.Op{Class: consistency.Load}
		sn = 2
	}
	for i := 0; i < fn; i++ {
		for j := 0; j < sn; j++ {
			if t.Ordered(fs[i], ss[j]) {
				return true
			}
		}
	}
	return false
}

// sortedKeys returns map keys ascending, for deterministic violation order.
func sortedKeys(m map[uint64]commitRec) []uint64 {
	if len(m) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
