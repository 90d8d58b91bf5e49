package core

import (
	"fmt"

	"dvmc/internal/coherence"
	"dvmc/internal/hash"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// scrubThreshold is how old (in logical ticks) an open epoch may grow
// before the CET announces it with an Inform-Open-Epoch. It must stay
// comfortably below half the 16-bit timestamp range so no live stamp ever
// becomes ambiguous.
const scrubThreshold = 1 << 14

// scrubFIFOSize matches the paper's implementation (128 entries per CET).
const scrubFIFOSize = 128

// CacheChecker is the cache-controller side of the Cache Coherence
// checker (Section 4.3). It maintains the Cache Epoch Table (CET): per
// resident block, the epoch's type, begin time, begin data signature, and
// DataReady bit. On every load or store it checks that the access falls
// in an appropriate epoch; when an epoch ends it ships an Inform-Epoch to
// the block's home MET. A FIFO of epoch-begin times scrubs long-lived
// epochs before their 16-bit timestamps can wrap.
//
// Entries live in a slab indexed by a map so the steady-state
// begin/end cycle recycles slots instead of allocating, and the scrub
// FIFO is a segDeque, which reuses the segments popping empties. Inform
// messages draw from an optional InformPool.
type CacheChecker struct {
	node  network.NodeID
	cfg   coherence.Config
	net   network.Network
	clock coherence.LogicalClock
	sink  Sink
	pool  *InformPool

	cet  map[mem.BlockAddr]int32
	slab []cetEntry
	free []int32

	scrub segDeque[scrubEntry]

	// due is the first cycle at which the scrub FIFO's head can be old
	// enough to announce; see MemChecker.due.
	sched cycleClock
	due   sim.Cycle

	// slot is the CET's place in the kernel; Tick publishes next() there.
	// advancing says the clock wakes it when it moves.
	slot      sim.Slot
	advancing bool

	cycleNow func() sim.Cycle

	stats CETStats
}

var (
	_ coherence.EpochListener  = (*CacheChecker)(nil)
	_ coherence.AccessListener = (*CacheChecker)(nil)
	_ sim.Scheduled            = (*CacheChecker)(nil)
)

// CETStats counts checker activity.
type CETStats struct {
	EpochsBegun   uint64
	EpochsEnded   uint64
	Informs       uint64
	OpenInforms   uint64
	ClosedInforms uint64
	Accesses      uint64
	Violations    uint64
}

type cetEntry struct {
	kind         coherence.EpochKind
	begin        uint64 // full internal time; 16 bits on the wire
	beginHash    hash.Signature
	dataReady    bool
	informedOpen bool
}

type scrubEntry struct {
	block mem.BlockAddr
	begin uint64
}

// NewCacheChecker builds the CET checker for one node. cycleNow stamps
// violations with the current processor cycle.
func NewCacheChecker(node network.NodeID, cfg coherence.Config, net network.Network,
	clock coherence.LogicalClock, cycleNow func() sim.Cycle, sink Sink) *CacheChecker {
	return new(CacheChecker).init(node, cfg, net, clock, cycleNow, sink)
}

// init makes c what NewCacheChecker builds.
func (c *CacheChecker) init(node network.NodeID, cfg coherence.Config, net network.Network, clock coherence.LogicalClock, cycleNow func() sim.Cycle, sink Sink) *CacheChecker {
	c.scrub.reset()
	*c = CacheChecker{node: node, cfg: cfg, net: net, clock: clock, sink: sink, cycleNow: cycleNow,
		cet: sim.Cleared(c.cet), slab: c.slab[:0], free: c.free[:0], scrub: c.scrub}
	if cc, ok := clock.(cycleClock); ok {
		c.sched = cc
		cc.OnSkew(c.wake)
	}
	return c
}

// Attach implements sim.Scheduled. On a clock that wakes on advance the
// CET subscribes: it sleeps until the clock moves or pushScrub wakes it.
func (c *CacheChecker) Attach(s sim.Slot) {
	c.slot = s
	c.advancing = subscribe(c.clock, s)
}

// wake marks the scrub FIFO's head or the clock changed: the next tick
// looks.
func (c *CacheChecker) wake() {
	c.due = 0
	c.slot.Wake()
}

// SetInformPool attaches the free lists of inform traffic. Whoever the
// network delivers an inform to releases it after its MET consumes it. A
// nil pool (the default) falls back to plain allocation.
func (c *CacheChecker) SetInformPool(p *InformPool) { c.pool = p }

// Stats returns checker counters.
func (c *CacheChecker) Stats() CETStats { return c.stats }

// OpenEpochs returns the CET occupancy (tests).
func (c *CacheChecker) OpenEpochs() int { return len(c.cet) }

// SlabInUse returns the number of occupied CET slab slots (telemetry:
// high-water pressure on the epoch-table storage).
func (c *CacheChecker) SlabInUse() int { return len(c.slab) - len(c.free) }

// ScrubQueueLen returns the current depth of the delayed-inform scrub
// FIFO (telemetry).
func (c *CacheChecker) ScrubQueueLen() int { return c.scrub.len() }

// Reset drops all epoch state (SafetyNet recovery: the caches were
// invalidated, so no epochs are open). Slab and FIFO capacity is kept.
func (c *CacheChecker) Reset() {
	clear(c.cet)
	c.slab = c.slab[:0]
	c.free = c.free[:0]
	c.scrub.reset()
	c.wake()
}

// alloc grabs a free slab slot (zeroed) and returns its index.
func (c *CacheChecker) alloc() int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.slab[i] = cetEntry{}
		return i
	}
	// The slab grows only until the peak concurrent-epoch count; steady
	// state reuses freed slots.
	c.slab = append(c.slab, cetEntry{})
	return int32(len(c.slab) - 1)
}

// EpochBegin implements coherence.EpochListener.
func (c *CacheChecker) EpochBegin(b mem.BlockAddr, kind coherence.EpochKind, ltime uint64, dataKnown bool, data mem.Block) {
	c.stats.EpochsBegun++
	i, exists := c.cet[b]
	if exists {
		c.violate(b, CETStateViolation, fmt.Sprintf("epoch %v begins while another is open", kind))
		// Recover conservatively: replace the entry in place.
		c.slab[i] = cetEntry{}
	} else {
		i = c.alloc()
		c.cet[b] = i
	}
	e := &c.slab[i]
	e.kind = kind
	e.begin = ltime
	e.dataReady = dataKnown
	if dataKnown {
		e.beginHash = BlockHash(data)
	}
	c.pushScrub(b, ltime)
}

// EpochData implements coherence.EpochListener: the block's data arrived
// after the epoch's ordering point (the CET's DataReadyBit case).
func (c *CacheChecker) EpochData(b mem.BlockAddr, data mem.Block) {
	i, ok := c.cet[b]
	if !ok {
		c.violate(b, CETStateViolation, "data arrived for a block with no open epoch")
		return
	}
	e := &c.slab[i]
	if !e.dataReady {
		e.beginHash = BlockHash(data)
		e.dataReady = true
	}
}

// EpochEnd implements coherence.EpochListener: ship the Inform-Epoch.
func (c *CacheChecker) EpochEnd(b mem.BlockAddr, kind coherence.EpochKind, ltime uint64, data mem.Block) {
	c.stats.EpochsEnded++
	i, ok := c.cet[b]
	if !ok {
		c.violate(b, CETStateViolation, fmt.Sprintf("epoch %v ends but none open", kind))
		return
	}
	e := &c.slab[i]
	if e.kind != kind {
		c.violate(b, CETStateViolation, fmt.Sprintf("epoch %v ends but %v open", kind, e.kind))
	}
	endHash := BlockHash(data)
	home := c.cfg.HomeOf(b)
	if e.informedOpen {
		c.stats.ClosedInforms++
		c.net.Send(c.pool.closedList().Wrap(c.inform(home, InformClosedBytes),
			InformClosedEpoch{Block: b, Kind: kind, End: Wrap(ltime), EndHash: endHash, From: c.node}))
	} else {
		c.stats.Informs++
		c.net.Send(c.pool.epochList().Wrap(c.inform(home, InformEpochBytes),
			InformEpoch{Block: b, Kind: kind, Begin: Wrap(e.begin), End: Wrap(ltime),
				BeginHash: e.beginHash, EndHash: endHash, From: c.node}))
	}
	delete(c.cet, b)
	// Free-list capacity tracks the slab, which is itself bounded.
	c.free = append(c.free, i)
}

// inform addresses an inform-class envelope of size bytes to the block's
// home MET.
func (c *CacheChecker) inform(home network.NodeID, size int) network.Message {
	return network.Message{Src: c.node, Dst: home, Size: size, Class: network.ClassInform}
}

// Access implements coherence.AccessListener: coherence rule 1 — reads
// and writes are performed only during appropriate epochs.
func (c *CacheChecker) Access(b mem.BlockAddr, write bool) {
	c.stats.Accesses++
	i, ok := c.cet[b]
	if !ok {
		c.violate(b, EpochAccessViolation, accessName(write)+" performed with no open epoch")
		return
	}
	if write && c.slab[i].kind != coherence.ReadWrite {
		c.violate(b, EpochAccessViolation, "store performed during a Read-Only epoch")
	}
}

func accessName(write bool) string {
	if write {
		return "store"
	}
	return "load"
}

// Tick implements sim.Clockable: the wraparound scrubbing walk.
func (c *CacheChecker) Tick(now sim.Cycle) {
	if c.scrub.len() > 0 && now >= c.due {
		c.scrubAged()
	}
	c.slot.SleepUntil(c.next())
}

// next is the cycle the CET is next due: never with an empty FIFO; due on
// a cycle-derived clock; never on a clock that wakes on advance (the head
// ages only when the clock moves, and a new head comes from pushScrub,
// which wakes the CET); on any other clock, every cycle.
func (c *CacheChecker) next() sim.Cycle {
	switch {
	case c.scrub.len() == 0:
		return sim.Never
	case c.sched != nil:
		return c.due
	case c.advancing:
		return sim.Never
	default:
		return 0
	}
}

// scrubAged announces every FIFO head past the scrub threshold.
func (c *CacheChecker) scrubAged() {
	lnow := c.clock.LogicalNow()
	for c.scrub.len() > 0 {
		head := c.scrub.at(0)
		if lnow-head.begin <= scrubThreshold {
			if c.sched != nil {
				c.due = c.sched.CycleAt(head.begin + scrubThreshold + 1)
			}
			break
		}
		c.scrubOne(c.scrub.popFront())
	}
}

func (c *CacheChecker) pushScrub(b mem.BlockAddr, begin uint64) {
	switch n := c.scrub.len(); {
	case n >= scrubFIFOSize:
		c.scrubOne(c.scrub.popFront())
		c.wake()
	case n == 0:
		c.slot.Wake() // a new head, however old its begin
	}
	c.scrub.push(scrubEntry{block: b, begin: begin})
}

// scrubOne announces a still-open old epoch to the home MET so its begin
// timestamp can be retired before wraparound.
func (c *CacheChecker) scrubOne(s scrubEntry) {
	i, ok := c.cet[s.block]
	if !ok {
		return // epoch already ended; nothing to scrub
	}
	e := &c.slab[i]
	if e.begin != s.begin || e.informedOpen {
		return // epoch re-begun or already announced
	}
	if !e.dataReady {
		// Cannot announce without the begin signature; re-queue.
		c.scrub.push(s)
		return
	}
	e.informedOpen = true
	c.stats.OpenInforms++
	c.net.Send(c.pool.openList().Wrap(c.inform(c.cfg.HomeOf(s.block), InformOpenBytes),
		InformOpenEpoch{Block: s.block, Kind: e.kind, Begin: Wrap(e.begin), BeginHash: e.beginHash, From: c.node}))
}

func (c *CacheChecker) violate(b mem.BlockAddr, kind ViolationKind, detail string) {
	c.stats.Violations++
	c.sink.Violation(Violation{Kind: kind, Node: c.node, Block: b, Cycle: c.cycleNow(), Detail: detail})
}
