package core

import (
	"fmt"

	"dvmc/internal/coherence"
	"dvmc/internal/hash"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// metQueueSize matches the paper's priority queue of 256 entries
// (Table 6).
const metQueueSize = 256

// MemChecker is the memory-controller side of the Cache Coherence
// checker: the Memory Epoch Table (MET). For every block it is home for,
// it keeps the latest end time of any Read-Only epoch, the latest end
// time of any Read-Write epoch, and the signature of the block at the end
// of the latest Read-Write epoch (48 bits per entry in the paper).
//
// Incoming Inform-Epochs are sorted by epoch begin time in a fixed-size
// priority queue and processed in begin-time order once they are older
// than a settle window (or when the queue overflows). Each one is checked
// for illegal overlap (rule 2 / SWMR) and correct data propagation (rule
// 3) and then folded into the entry.
//
// Hot-path layout: MET entries live in a slab indexed through a map, and
// the inform priority queue is a hand-rolled slice heap — container/heap
// would box one queuedInform per Push/Pop, an allocation on every inform,
// and the paper's always-on claim lives or dies on those constant
// factors.
type MemChecker struct {
	node  network.NodeID
	cfg   coherence.Config
	clock coherence.LogicalClock
	sink  Sink

	met  map[mem.BlockAddr]int32
	slab []metEntry
	pq   []queuedInform

	// oldestCache memoises the minimum arrivedAt over pq. Arrival times
	// are monotonic in enqueue order, so an enqueue never lowers the
	// minimum; only pops invalidate it.
	oldestCache sim.Cycle
	oldestValid bool

	// window is how many logical ticks an inform rests in the queue
	// before processing, giving stragglers time to sort in. It must cover
	// the maximum inform network delay (in logical ticks) so that
	// causally ordered informs are processed in begin-time order.
	window uint64
	// cycleWindow bounds how long (in cycles) an inform may wait when the
	// logical clock stalls (idle snooping bus), keeping detection latency
	// bounded.
	cycleWindow sim.Cycle

	cycleNow func() sim.Cycle
	enqSeq   uint64

	// due is the first cycle at which Tick can pop the head inform; until
	// then Tick returns without reading the clock. Only a cycle-derived
	// clock can say (sched nil otherwise: due stays 0 and Tick always
	// looks). Anything that changes the head or the clock zeroes it.
	sched cycleClock
	due   sim.Cycle

	// slot is the MET's place in the kernel; Tick publishes next() there.
	// advancing says the clock wakes it when it moves.
	slot      sim.Slot
	advancing bool

	stats METStats
}

var _ sim.Scheduled = (*MemChecker)(nil)

// cycleClock is a logical clock that is a function of the cycle count
// (the directory system's SkewedClock, not the snooping broadcast
// sequence): it can name the cycle at which it will read a given time,
// and reports when a fault moves it.
type cycleClock interface {
	CycleAt(t uint64) sim.Cycle
	OnSkew(func())
}

// advanceClock is a logical clock that moves only at discrete events (the
// snooping broadcast sequence): it wakes the slots handed to it whenever
// it advances, so a checker waiting on it can sleep until then.
type advanceClock interface {
	WakeOnAdvance(sim.Slot)
}

// subscribe hands s to clock if the clock wakes on advance, and reports
// whether it did.
func subscribe(clock coherence.LogicalClock, s sim.Slot) bool {
	ac, ok := clock.(advanceClock)
	if ok {
		ac.WakeOnAdvance(s)
	}
	return ok
}

// METStats counts checker activity.
type METStats struct {
	InformsProcessed uint64
	OpensProcessed   uint64
	ClosesProcessed  uint64
	Overlaps         uint64
	DataMismatches   uint64
	QueueOverflows   uint64
	Entries          int
}

type metEntry struct {
	lastROEnd  uint64
	lastRWEnd  uint64
	lastRWHash hash.Signature
	hashKnown  bool

	openRO uint64         // bitmask of nodes with announced-open RO epochs
	openRW network.NodeID // node with an announced-open RW epoch; -1 none
}

// queuedInform is an InformEpoch with its reconstructed full begin time.
type queuedInform struct {
	inform    InformEpoch
	begin     uint64
	seq       uint64
	arrivedAt sim.Cycle
}

// pqLess orders informs by epoch begin time, ties broken by arrival
// order (paper).
func (m *MemChecker) pqLess(i, j int) bool {
	if m.pq[i].begin != m.pq[j].begin {
		return m.pq[i].begin < m.pq[j].begin
	}
	return m.pq[i].seq < m.pq[j].seq
}

func (m *MemChecker) pqPush(qi queuedInform) {
	// Queue capacity is bounded by metQueueSize and amortizes during
	// warmup.
	m.pq = append(m.pq, qi)
	i := len(m.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !m.pqLess(i, parent) {
			break
		}
		m.pq[i], m.pq[parent] = m.pq[parent], m.pq[i]
		i = parent
	}
}

func (m *MemChecker) pqPop() queuedInform {
	top := m.pq[0]
	n := len(m.pq) - 1
	m.pq[0] = m.pq[n]
	m.pq[n] = queuedInform{}
	m.pq = m.pq[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && m.pqLess(r, l) {
			least = r
		}
		if !m.pqLess(least, i) {
			break
		}
		m.pq[i], m.pq[least] = m.pq[least], m.pq[i]
		i = least
	}
	m.oldestValid = false // the popped element may have been the oldest
	return top
}

// NewMemChecker builds the MET checker for one home node.
func NewMemChecker(node network.NodeID, cfg coherence.Config, clock coherence.LogicalClock,
	cycleNow func() sim.Cycle, sink Sink) *MemChecker {
	m := &MemChecker{
		node:        node,
		cfg:         cfg,
		clock:       clock,
		sink:        sink,
		met:         make(map[mem.BlockAddr]int32),
		window:      128,
		cycleWindow: 4096,
		cycleNow:    cycleNow,
	}
	if cc, ok := clock.(cycleClock); ok {
		m.sched = cc
		cc.OnSkew(m.wake)
	}
	return m
}

// Attach implements sim.Scheduled. On a clock that wakes on advance the
// MET subscribes: it sleeps until the clock moves, an inform arrives, or
// the oldest inform outwaits cycleWindow.
func (m *MemChecker) Attach(s sim.Slot) {
	m.slot = s
	m.advancing = subscribe(m.clock, s)
}

// wake marks the head or the clock changed: the next tick looks.
func (m *MemChecker) wake() {
	m.due = 0
	m.slot.Wake()
}

// Stats returns checker counters.
func (m *MemChecker) Stats() METStats {
	s := m.stats
	s.Entries = len(m.met)
	return s
}

// QueueDepth returns the current inform priority-queue occupancy
// (telemetry: backpressure at the MET).
func (m *MemChecker) QueueDepth() int { return len(m.pq) }

// Entries returns the current MET entry count, without copying stats
// (telemetry).
func (m *MemChecker) Entries() int { return len(m.met) }

// Reset drops all MET entries and queued informs (SafetyNet recovery).
// Entries are reconstructed from restored memory by the home
// controllers' new-block hooks.
func (m *MemChecker) Reset() {
	clear(m.met)
	m.slab = m.slab[:0]
	m.pq = m.pq[:0]
	m.oldestValid = false
	m.wake()
}

// BlockRequested constructs the MET entry for a block's first request:
// last Read-Write epoch ended "now" with the signature of the memory
// data (Section 4.3, MET operation). Wire this to the home controller's
// new-block hook.
func (m *MemChecker) BlockRequested(b mem.BlockAddr, data mem.Block) {
	if _, ok := m.met[b]; ok {
		return
	}
	m.slab = append(m.slab, metEntry{
		lastRWEnd:  m.clock.LogicalNow(),
		lastRWHash: BlockHash(data),
		hashKnown:  true,
		openRW:     -1,
	})
	m.met[b] = int32(len(m.slab) - 1)
}

// Handle consumes a verification message delivered at the home node.
func (m *MemChecker) Handle(msg *network.Message) {
	switch p := msg.Payload.(type) {
	case *InformEpoch:
		m.enqueue(*p)
	case *InformOpenEpoch:
		m.processOpen(*p)
	case *InformClosedEpoch:
		m.processClosed(*p)
	case InformEpoch:
		m.enqueue(p)
	case InformOpenEpoch:
		m.processOpen(p)
	case InformClosedEpoch:
		m.processClosed(p)
	default:
		// Not a verification message; ignore (the dispatcher routes).
	}
}

func (m *MemChecker) enqueue(p InformEpoch) {
	m.enqSeq++
	qi := queuedInform{inform: p, begin: p.Begin.Reconstruct(m.clock.LogicalNow()),
		seq: m.enqSeq, arrivedAt: m.cycleNow()}
	if len(m.pq) == 0 && !m.oldestValid {
		m.oldestCache = qi.arrivedAt
		m.oldestValid = true
	}
	m.pqPush(qi)
	m.wake()
	if len(m.pq) > metQueueSize {
		m.stats.QueueOverflows++
		m.processOne(m.pqPop())
	}
}

// Tick implements sim.Clockable: drain informs old enough to be safely
// ordered, and force progress when the logical clock stalls.
func (m *MemChecker) Tick(now sim.Cycle) {
	if len(m.pq) > 0 && now >= m.due {
		m.settle(now)
	}
	m.slot.SleepUntil(m.next())
}

// settle processes the informs old enough to be safely ordered, and
// those the cycle window forces out.
func (m *MemChecker) settle(now sim.Cycle) {
	lnow := m.clock.LogicalNow()
	for len(m.pq) > 0 && m.pq[0].begin+m.window <= lnow {
		m.processOne(m.pqPop())
	}
	for len(m.pq) > 0 && now > m.oldestArrival()+m.cycleWindow {
		m.processOne(m.pqPop())
	}
	if m.sched != nil && len(m.pq) > 0 {
		// Neither loop pops before the clock passes the head's settle
		// window or the oldest inform outwaits cycleWindow.
		m.due = min(m.sched.CycleAt(m.pq[0].begin+m.window), m.oldestArrival()+m.cycleWindow+1)
	}
}

// next is the cycle the MET is next due: never with an empty queue; due
// on a cycle-derived clock; on a clock that wakes on advance, the cycle
// the oldest inform outwaits cycleWindow (the first loop of settle cannot
// pop before the clock moves or an inform arrives, and both wake the
// MET); on any other clock, every cycle.
func (m *MemChecker) next() sim.Cycle {
	switch {
	case len(m.pq) == 0:
		return sim.Never
	case m.sched != nil:
		return m.due
	case m.advancing:
		return m.oldestArrival() + m.cycleWindow + 1
	default:
		return 0
	}
}

// oldestArrival returns the earliest arrival cycle among queued informs,
// memoised so the steady-state Tick check is O(1).
func (m *MemChecker) oldestArrival() sim.Cycle {
	if m.oldestValid {
		return m.oldestCache
	}
	oldest := m.pq[0].arrivedAt
	for _, qi := range m.pq[1:] {
		if qi.arrivedAt < oldest {
			oldest = qi.arrivedAt
		}
	}
	m.oldestCache = oldest
	m.oldestValid = true
	return oldest
}

// Drain folds every queued inform into the MET immediately (end of
// simulation). Informs younger than the settle window are folded without
// running the overlap and data-propagation checks: their causal
// predecessors may still be in flight in the network, so checking them
// now would manufacture false positives. Mid-run detection is unaffected
// — Tick always checks.
func (m *MemChecker) Drain() {
	lnow := m.clock.LogicalNow()
	for len(m.pq) > 0 {
		qi := m.pqPop()
		if qi.begin+m.window <= lnow {
			m.processOne(qi)
		} else {
			m.foldOnly(qi)
		}
	}
}

// foldOnly updates MET state from an inform without checking it.
func (m *MemChecker) foldOnly(qi queuedInform) {
	p := qi.inform
	m.stats.InformsProcessed++
	e := m.entry(p.Block)
	end := p.End.Reconstruct(qi.begin)
	switch p.Kind {
	case coherence.ReadOnly:
		if end > e.lastROEnd {
			e.lastROEnd = end
		}
	case coherence.ReadWrite:
		if end > e.lastRWEnd {
			e.lastRWEnd = end
		}
		e.lastRWHash = p.EndHash
		e.hashKnown = true
	}
}

// entry returns the MET entry for a block, creating it conservatively
// when the home controller's new-block hook has not seen it. The pointer
// is valid until the next BlockRequested/entry call (slab growth).
func (m *MemChecker) entry(b mem.BlockAddr) *metEntry {
	i, ok := m.met[b]
	if !ok {
		// Entry should exist via BlockRequested; create conservatively
		// with an unknown data signature.
		// Conservative entry creation happens once per block; steady state
		// hits the index.
		m.slab = append(m.slab, metEntry{openRW: -1})
		i = int32(len(m.slab) - 1)
		m.met[b] = i
	}
	return &m.slab[i]
}

func (m *MemChecker) processOne(qi queuedInform) {
	p := qi.inform
	m.stats.InformsProcessed++
	e := m.entry(p.Block)
	end := p.End.Reconstruct(qi.begin)
	m.checkBegin(p.Block, e, p.Kind, qi.begin, p.BeginHash, p.From)
	switch p.Kind {
	case coherence.ReadOnly:
		if end > e.lastROEnd {
			e.lastROEnd = end
		}
	case coherence.ReadWrite:
		if end > e.lastRWEnd {
			e.lastRWEnd = end
		}
		e.lastRWHash = p.EndHash
		e.hashKnown = true
	}
}

// checkBegin runs the overlap (rule 2) and data propagation (rule 3)
// checks for an epoch beginning at begin.
func (m *MemChecker) checkBegin(b mem.BlockAddr, e *metEntry, kind coherence.EpochKind, begin uint64,
	beginHash hash.Signature, from network.NodeID) {
	// Rule 2: a Read-Only epoch may not start before the latest
	// Read-Write epoch's end; a Read-Write epoch may not start before the
	// latest end of any epoch. Announced-open epochs conflict with any
	// new Read-Write epoch (and an open RW with anything).
	if begin < e.lastRWEnd {
		m.overlap(b, fmt.Sprintf("%v epoch begins at %d before last RW end %d", kind, begin, e.lastRWEnd))
	}
	if kind == coherence.ReadWrite && begin < e.lastROEnd {
		m.overlap(b, fmt.Sprintf("RW epoch begins at %d before last RO end %d", begin, e.lastROEnd))
	}
	if e.openRW >= 0 && e.openRW != from {
		m.overlap(b, fmt.Sprintf("%v epoch begins while node %d holds an open RW epoch", kind, e.openRW))
	}
	if kind == coherence.ReadWrite && e.openRO&^(1<<uint(from)) != 0 {
		m.overlap(b, fmt.Sprintf("RW epoch begins while RO epochs are open (mask %b)", e.openRO))
	}
	// Rule 3: data at the beginning of every epoch equals the data at the
	// end of the most recent Read-Write epoch.
	if e.hashKnown && beginHash != e.lastRWHash {
		m.stats.DataMismatches++
		m.sink.Violation(Violation{Kind: DataPropagation, Node: m.node, Block: b, Cycle: m.cycleNow(),
			Detail: fmt.Sprintf("epoch begin signature %#04x != last RW end signature %#04x", beginHash, e.lastRWHash)})
	}
}

func (m *MemChecker) processOpen(p InformOpenEpoch) {
	m.stats.OpensProcessed++
	e := m.entry(p.Block)
	begin := p.Begin.Reconstruct(m.clock.LogicalNow())
	m.checkBegin(p.Block, e, p.Kind, begin, p.BeginHash, p.From)
	switch p.Kind {
	case coherence.ReadOnly:
		e.openRO |= 1 << uint(p.From)
	case coherence.ReadWrite:
		e.openRW = p.From
	}
}

func (m *MemChecker) processClosed(p InformClosedEpoch) {
	m.stats.ClosesProcessed++
	e := m.entry(p.Block)
	end := p.End.Reconstruct(m.clock.LogicalNow())
	switch p.Kind {
	case coherence.ReadOnly:
		e.openRO &^= 1 << uint(p.From)
		if end > e.lastROEnd {
			e.lastROEnd = end
		}
	case coherence.ReadWrite:
		if e.openRW == p.From {
			e.openRW = -1
		}
		if end > e.lastRWEnd {
			e.lastRWEnd = end
		}
		e.lastRWHash = p.EndHash
		e.hashKnown = true
	}
}

func (m *MemChecker) overlap(b mem.BlockAddr, detail string) {
	m.stats.Overlaps++
	m.sink.Violation(Violation{Kind: EpochOverlap, Node: m.node, Block: b, Cycle: m.cycleNow(), Detail: detail})
}
