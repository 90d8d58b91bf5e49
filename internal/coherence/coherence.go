// Package coherence implements the cache-coherent memory system under
// DVMC: set-associative caches, a blocking MOSI directory protocol, and a
// MOSI snooping protocol over a totally ordered address network, matching
// the two system configurations the paper evaluates (Table 6).
//
// The package exposes the exact event stream the DVMC checkers need:
// epoch transitions (a node gaining or losing read / read-write permission
// for a block, paper Section 4.3) and cache accesses (for the CET's
// "operations perform in an appropriate epoch" rule). The checkers
// themselves live in internal/core; coherence knows nothing about them
// beyond the listener interfaces defined here.
package coherence

import (
	"fmt"
	"math/bits"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// State is a MOSI cache-line state.
type State uint8

// MOSI stable states. Transient conditions are tracked by MSHRs, not by
// extra states, because the home controller is blocking (it serialises
// transactions per block), which keeps the protocol race surface small.
const (
	Invalid State = iota
	Shared
	Owned
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// CanRead reports whether the state grants read permission.
func (s State) CanRead() bool { return s != Invalid }

// CanWrite reports whether the state grants write permission.
func (s State) CanWrite() bool { return s == Modified }

// EpochKind classifies an epoch per the paper: Read-Only (permission to
// read) or Read-Write (permission to read and write).
type EpochKind uint8

// Epoch kinds.
const (
	ReadOnly EpochKind = iota + 1
	ReadWrite
)

// String implements fmt.Stringer.
func (k EpochKind) String() string {
	switch k {
	case ReadOnly:
		return "RO"
	case ReadWrite:
		return "RW"
	default:
		return fmt.Sprintf("EpochKind(%d)", uint8(k))
	}
}

// epochKindOf maps a stable state to the kind of epoch it sustains.
// Owned grants read permission only (a store in O must upgrade to M).
func epochKindOf(s State) EpochKind {
	if s == Modified {
		return ReadWrite
	}
	return ReadOnly
}

// EpochListener observes permission-interval transitions at one cache
// controller. The DVMC cache-coherence checker implements this to
// maintain its CET and emit Inform-Epoch messages.
//
// Begin fires at the moment the permission is globally ordered; ltime is
// the logical time of that ordering point. Data may arrive later
// (dataKnown=false, followed by EpochData — the CET's DataReadyBit case).
// End fires when permission is lost (invalidation, downgrade, or
// eviction) and carries the final block data; in the snooping system a
// downgrade can be *ordered* before the epoch's data has even arrived, in
// which case End still carries the ordering point's ltime even though it
// is delivered to the listener only after the data lands and local
// stores perform. A downgrade M→O fires End(ReadWrite) followed by
// Begin(ReadOnly) with the same ltime; an upgrade S/O→M fires
// End(ReadOnly) then Begin(ReadWrite).
type EpochListener interface {
	EpochBegin(b mem.BlockAddr, kind EpochKind, ltime uint64, dataKnown bool, data mem.Block)
	EpochData(b mem.BlockAddr, data mem.Block)
	EpochEnd(b mem.BlockAddr, kind EpochKind, ltime uint64, data mem.Block)
}

// AccessListener observes loads and stores performing at the cache, so
// the checker can verify they fall inside an appropriate epoch (coherence
// rule 1).
type AccessListener interface {
	Access(b mem.BlockAddr, write bool)
}

// TxnListener observes the lifetime of coherence transactions at a
// cache controller, for the causal span recorder: TxnBegin fires when a
// request leaves the controller (an MSHR issues), TxnEnd when the MSHR
// retires. An S→M upgrade race fires TxnEnd(upgraded=true) for the read
// transaction followed by TxnBegin(wantM=true) for the write that
// continues in its place.
type TxnListener interface {
	TxnBegin(b mem.BlockAddr, wantM bool)
	TxnEnd(b mem.BlockAddr, upgraded bool)
}

// LogicalClock provides the causality-respecting time base of Section 4.3.
// Snooping systems use the broadcast sequence number; directory systems a
// loosely synchronised physical clock whose skew is below the minimum
// network latency.
type LogicalClock interface {
	LogicalNow() uint64
}

// SkewedClock is the directory system's logical time base: a slow
// physical clock with a per-node skew strictly below the minimum
// communication latency, which suffices for causality (Section 4.3).
type SkewedClock struct {
	now  func() sim.Cycle
	skew uint64
	// shift is log2 of the clock divisor, so a read shifts instead of
	// dividing.
	shift uint

	onSkew []func()
}

var _ LogicalClock = (*SkewedClock)(nil)

// NewSkewedClock builds a node clock reading the global cycle counter
// through now. div slows the clock (one logical tick per div cycles)
// and must be a power of two; skew models loose synchronisation and must
// stay below the minimum network latency.
func NewSkewedClock(now func() sim.Cycle, skew, div uint64) *SkewedClock {
	if div == 0 || div&(div-1) != 0 {
		panic("coherence: SkewedClock div must be a power of two")
	}
	return &SkewedClock{now: now, skew: skew, shift: uint(bits.TrailingZeros64(div))}
}

// LogicalNow implements LogicalClock.
func (c *SkewedClock) LogicalNow() uint64 {
	return (uint64(c.now()) + c.skew) >> c.shift
}

// CycleAt returns the first cycle at which LogicalNow reads t or later.
// A checker waiting for logical time t can compare cycles against it
// instead of reading the clock every tick; InjectSkew moves the answer,
// so such a checker also registers with OnSkew.
func (c *SkewedClock) CycleAt(t uint64) sim.Cycle {
	raw := t << c.shift
	if raw <= c.skew {
		return 0
	}
	return sim.Cycle(raw - c.skew)
}

// OnSkew registers fn to run after every InjectSkew.
func (c *SkewedClock) OnSkew(fn func()) { c.onSkew = append(c.onSkew, fn) }

// InjectSkew adds delta raw cycles of extra skew, modelling a fault in
// the loose clock-synchronisation hardware. Injected skew above the
// minimum network latency breaks the causality premise of Section 4.3,
// and skew near the Time16 half-range attacks the wraparound scrubber.
func (c *SkewedClock) InjectSkew(delta uint64) {
	c.skew += delta
	for _, fn := range c.onSkew {
		fn()
	}
}

// Config sizes the memory system. Zero values are invalid; use
// DefaultConfig from the public package or fill every field.
type Config struct {
	Nodes int

	// L1 geometry (tag filter in front of the coherent L2).
	L1Sets, L1Ways int
	// L2 geometry (the coherence point).
	L2Sets, L2Ways int
}

// The memory-system parameters of paper Table 6 that no evaluation
// varies, in cycles except maxMSHRs.
const (
	l1Latency  = 2   // hit latency of the L1
	l2Latency  = 13  // additional latency of an L2 access
	memLatency = 160 // DRAM access latency at the home controller
	dirLatency = 2   // directory lookup at the home controller
	maxMSHRs   = 16  // maximum outstanding transactions per cache controller
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("coherence: Nodes = %d, need >= 1", c.Nodes)
	case c.L1Sets < 1 || c.L1Ways < 1:
		return fmt.Errorf("coherence: bad L1 geometry %dx%d", c.L1Sets, c.L1Ways)
	case c.L2Sets < 1 || c.L2Ways < 1:
		return fmt.Errorf("coherence: bad L2 geometry %dx%d", c.L2Sets, c.L2Ways)
	}
	return nil
}

// HomeOf returns the node whose memory controller owns block b. Blocks
// are interleaved across nodes.
func (c Config) HomeOf(b mem.BlockAddr) network.NodeID {
	return network.NodeID(uint64(b) % uint64(c.Nodes))
}

// Controller is the interface the processor model drives. Both the
// directory and the snooping cache controllers implement it.
type Controller interface {
	sim.Clockable

	// Load reads a word. done fires when the value is available and
	// reports whether the access hit in the L1 (for the replay-miss
	// statistics of Figure 6). class distinguishes demand traffic from
	// replay traffic.
	Load(addr mem.Addr, class network.Class, done func(val mem.Word, l1Hit bool))

	// Store obtains write permission, writes the word, and calls done
	// when the store has performed (become visible to other processors).
	Store(addr mem.Addr, val mem.Word, done func())

	// RMW atomically loads the old word, applies f, and stores the
	// result (covering SPARC swap, cas, and fetch-and-add). done fires at
	// perform time with the loaded value.
	RMW(addr mem.Addr, f func(old mem.Word) mem.Word, done func(old mem.Word))

	// PrefetchExclusive hints that a store to addr will commit soon; the
	// controller may acquire M early. The paper's baseline prefetches
	// for both loads and stores.
	PrefetchExclusive(addr mem.Addr)

	// PeekWord returns the word if the block is present with read
	// permission, without traffic or latency (used by tests and the
	// verification-cache fast path).
	PeekWord(addr mem.Addr) (mem.Word, bool)

	// Outstanding returns the number of MSHRs in use.
	Outstanding() int

	// SetEpochListener installs the DVMC epoch observer (may be nil).
	SetEpochListener(l EpochListener)
	// SetAccessListener installs the DVMC access observer (may be nil).
	SetAccessListener(l AccessListener)
	// SetTxnListener installs the span recorder's transaction observer
	// (may be nil).
	SetTxnListener(l TxnListener)

	// Stats returns controller counters.
	Stats() ControllerStats

	// SetStrict toggles panic-on-protocol-anomaly (default true); fault
	// injection runs with it off.
	SetStrict(strict bool)

	// CorruptCacheBit flips one bit of a resident block's data, modelling
	// a fault in the SRAM array; the line's ECC corrects it on the next
	// access. Returns false if the block is absent.
	CorruptCacheBit(b mem.BlockAddr, bit int) bool

	// DropPermissionFault silently discards the controller's permission
	// record for a block without ending the epoch or informing home —
	// modelling cache-controller state corruption. Returns false if the
	// block is absent.
	DropPermissionFault(b mem.BlockAddr) bool

	// WriteWithoutPermissionFault performs a store to a block the
	// controller only holds in S/O (or even I), modelling a controller
	// logic fault that skips the upgrade. Returns false if impossible.
	WriteWithoutPermissionFault(addr mem.Addr, val mem.Word) bool

	// CorruptLineStateFault corrupts the MOSI state bits of a resident
	// line, modelling a protocol-state flip in the cache controller:
	// promote silently upgrades an S/O line to M (write permission the
	// system never granted), !promote silently demotes an M line to S
	// (the writeback obligation is forgotten). No epoch event or
	// protocol message is emitted — the verification metadata is left
	// deliberately stale. Returns false if no line can sustain the
	// requested corruption.
	CorruptLineStateFault(b mem.BlockAddr, promote bool) bool

	// StateFaultFired reports whether an injected CorruptLineStateFault
	// was architecturally exercised — a store performed under, or an
	// eviction/writeback happened in, the corrupted state — and at which
	// cycle: the corruption can lie dormant long after arming, and
	// detection latency is measured from the exercise, not the arming. A
	// corruption erased by an invalidation before being exercised is
	// masked.
	StateFaultFired() (sim.Cycle, bool)

	// ForEachDirty reports what changed among the dirty blocks since its
	// last call (or since Reset, which leaves none), for SafetyNet's
	// incremental checkpoint capture. Every L2 set whose lines changed is
	// reported in ascending order as set(s), followed by fn for each of
	// its dirty (M or O) lines in way order; then set(n), n the number of
	// sets; then fn for every dirty writeback entry in ascending block
	// order. A caller holding the previous call's lines in array order,
	// block b in set b mod n, rebuilds the full list: at set(s) it keeps
	// its lines of the sets below s and drops those of set s.
	ForEachDirty(set func(s int), fn func(b mem.BlockAddr, data mem.Block))

	// ResidentBlocks returns up to max resident blocks with valid data,
	// most recently used first (fault-injection targeting).
	ResidentBlocks(max int) []mem.BlockAddr

	// ResidentReadOnlyBlocks returns resident blocks held without write
	// permission (S or O), MRU first — the targets of interest for
	// write-without-permission faults.
	ResidentReadOnlyBlocks(max int) []mem.BlockAddr

	// ECCCorrected returns the number of single-bit cache errors the
	// line ECC corrected (the paper requires ECC on all cache lines; a
	// corrected flip is a detected-and-recovered error).
	ECCCorrected() uint64

	// Reset invalidates the whole cache and drops transient state
	// (SafetyNet recovery). Statistics are preserved.
	Reset()
}

// Home is the memory-side controller of either protocol (DirHome,
// SnoopHome) as system assembly, checkpointing and fault injection see
// it; the protocol-specific message entry points stay on the concrete
// types, which the handlers in dispatch.go take.
type Home interface {
	sim.Clockable

	// Memory returns the home's memory module.
	Memory() *mem.Memory
	// Reset clears directory/ownership and transient state (SafetyNet
	// recovery) and re-arms the new-block hook.
	Reset()
	// SetStrict toggles panic-on-protocol-anomaly (default true).
	SetStrict(strict bool)
	// SetNewBlockListener installs the hook fired the first time any
	// processor requests a block, with the block's memory data.
	SetNewBlockListener(fn func(b mem.BlockAddr, data mem.Block))
	// Stats returns home-controller counters.
	Stats() HomeStats
}

// ControllerStats counts cache-controller activity.
type ControllerStats struct {
	Loads, Stores      uint64
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	ReplayL1Misses     uint64 // L1 misses on ClassReplay loads (Figure 6)
	ReplayLoads        uint64
	WritebacksDirty    uint64
	EvictionsClean     uint64
	TransactionsIssued uint64
}

// HomeStats counts home/memory-controller activity.
type HomeStats struct {
	GetS, GetM, Upgrades, Writebacks uint64
	MemoryReads, MemoryWrites        uint64
	QueuedConflicts                  uint64
}

// queue is the event queue every coherence controller runs on, and the
// controller's place in the kernel. The queue's head is the controller's
// due cycle: later is the one way work enters the queue, and the Tick
// that drains it publishes the next head. "Now" for a controller is its
// slot's LastTick, the cycle of its last tick whether or not the kernel
// called it.
type queue struct {
	events sim.EventQueue
	slot   sim.Slot
}

var (
	_ sim.Scheduled = (*DirCache)(nil)
	_ sim.Scheduled = (*SnoopCache)(nil)
	_ sim.Scheduled = (*DirHome)(nil)
	_ sim.Scheduled = (*SnoopHome)(nil)
)

// Attach implements sim.Scheduled.
func (q *queue) Attach(s sim.Slot) { q.slot = s }

// Tick implements sim.Clockable: runs the events due by now.
func (q *queue) Tick(now sim.Cycle) {
	q.events.Tick(now)
	q.slot.SleepUntil(q.events.Next())
}

// now returns the cycle of the controller's last tick.
func (q *queue) now() sim.Cycle { return q.slot.LastTick() }

// later schedules fn delay cycles after now.
func (q *queue) later(delay sim.Cycle, fn func()) {
	at := q.now() + delay
	q.events.At(at, fn)
	q.slot.WakeAt(at)
}
