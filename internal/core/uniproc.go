package core

import (
	"fmt"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// UniprocChecker dynamically verifies Uniprocessor Ordering (Section
// 4.1): every load must return the value of the most recent store to the
// same word in program order, unless another processor's store
// intervened. The processor's verification pipeline stage replays all
// memory operations at commit, in program order, against this checker's
// Verification Cache (VC):
//
//   - A committed store appends its value to the word's VC entry — a FIFO
//     of committed-but-unperformed values (stores are still speculative
//     at commit and must not touch architectural state). Each perform at
//     the cache pops the oldest expected value and compares it with the
//     value actually written, catching write-buffer corruption, dropped
//     stores, and same-word reorderings — including on intermediate
//     values of a multi-store burst, which a final-value-only comparison
//     would miss even though they are architecturally visible to loads.
//   - A replayed load first reads the VC; on a miss it accesses the
//     highest cache level (bypassing the write buffer). The replay value
//     is compared with the original execution's value; a mismatch forces
//     a pipeline flush.
//
// In models that do not order loads (RMO), loads perform at execute and
// replay serves only Uniprocessor Ordering; the checker then caches load
// values in the VC (kept coherent with local committed stores) so that
// replay never pressures the L1 — the optimization of Section 4.1.
//
// The VC is slab-backed: entries live in a flat slice indexed through a
// map and recycled through a free list, and load-value entries form an
// intrusive FIFO list for capacity eviction, so the steady-state
// commit/perform path allocates nothing.
type UniprocChecker struct {
	node network.NodeID
	sink Sink

	slab []vcEntry
	free []int32
	idx  map[mem.Addr]int32

	// Intrusive FIFO of load-value entries for capacity eviction.
	loadHead, loadTail int32

	capacity int
	// storeEntries counts entries holding committed-but-unperformed
	// values (O(1) CanAllocateStore and drain checking).
	storeEntries int

	// cacheLoadValues enables the RMO optimisation: executed load values
	// live in the VC and satisfy replay without an L1 access.
	cacheLoadValues bool

	stats UniprocStats
}

// UniprocStats counts checker activity.
type UniprocStats struct {
	StoresTracked   uint64
	LoadsReplayed   uint64
	VCHits          uint64
	VCMisses        uint64
	LoadMismatches  uint64
	StoreMismatches uint64
}

// vcEntry is one VC word. While vals[head:] is non-empty the entry
// tracks committed-but-unperformed stores (oldest first); once drained
// it either frees or, under the RMO optimisation, becomes a cached
// load value (loadValue=true, val holds the value, prev/next link the
// eviction FIFO).
type vcEntry struct {
	addr       mem.Addr
	vals       []mem.Word
	head       int
	val        mem.Word
	loadValue  bool
	prev, next int32
}

func (e *vcEntry) pending() int { return len(e.vals) - e.head }

// NewUniprocChecker builds the checker for one processor. capacity bounds
// the VC (the paper sizes it so that all committed-but-unperformed stores
// fit; 32-256 bytes of storage).
func NewUniprocChecker(node network.NodeID, capacity int, cacheLoadValues bool, sink Sink) *UniprocChecker {
	return new(UniprocChecker).init(node, capacity, cacheLoadValues, sink)
}

// init makes u what NewUniprocChecker builds.
func (u *UniprocChecker) init(node network.NodeID, capacity int, cacheLoadValues bool, sink Sink) *UniprocChecker {
	if capacity < 1 {
		panic("core: UniprocChecker capacity must be positive")
	}
	// The index is unsized: a short run indexes a few words, and a map
	// sized for the VC's capacity would cost every node its table up front.
	*u = UniprocChecker{node: node, sink: sink, loadHead: -1, loadTail: -1, capacity: capacity, cacheLoadValues: cacheLoadValues,
		slab: u.slab[:0], free: u.free[:0], idx: sim.Cleared(u.idx)}
	return u
}

// Stats returns checker counters.
func (u *UniprocChecker) Stats() UniprocStats { return u.stats }

// alloc returns a reset entry for addr, registering it in the index.
func (u *UniprocChecker) alloc(addr mem.Addr) int32 {
	var i int32
	if n := len(u.free); n > 0 {
		i = u.free[n-1]
		u.free = u.free[:n-1]
	} else {
		// The slab grows only until the VC capacity bound; steady state
		// recycles freed entries.
		u.slab = append(u.slab, vcEntry{})
		i = int32(len(u.slab) - 1)
	}
	e := &u.slab[i]
	e.addr = addr
	e.vals = e.vals[:0]
	e.head = 0
	e.val = 0
	e.loadValue = false
	e.prev, e.next = -1, -1
	u.idx[addr] = i
	return i
}

// freeEntry unregisters and recycles an entry. Load-list links must
// already be detached.
func (u *UniprocChecker) freeEntry(i int32) {
	delete(u.idx, u.slab[i].addr)
	// Free-list capacity tracks the slab, which is bounded by the VC
	// capacity.
	u.free = append(u.free, i)
}

// linkLoad appends entry i to the load-value eviction FIFO.
func (u *UniprocChecker) linkLoad(i int32) {
	e := &u.slab[i]
	e.prev = u.loadTail
	e.next = -1
	if u.loadTail >= 0 {
		u.slab[u.loadTail].next = i
	} else {
		u.loadHead = i
	}
	u.loadTail = i
}

// unlinkLoad removes entry i from the load-value eviction FIFO.
func (u *UniprocChecker) unlinkLoad(i int32) {
	e := &u.slab[i]
	if e.prev >= 0 {
		u.slab[e.prev].next = e.next
	} else {
		u.loadHead = e.next
	}
	if e.next >= 0 {
		u.slab[e.next].prev = e.prev
	} else {
		u.loadTail = e.prev
	}
	e.prev, e.next = -1, -1
}

// CanAllocateStore reports whether the VC has room for another store
// entry. The verification stage stalls when it returns false ("the VC
// must be big enough to hold all stores that have been verified but not
// yet performed").
func (u *UniprocChecker) CanAllocateStore(addr mem.Addr) bool {
	if i, ok := u.idx[addr]; ok && !u.slab[i].loadValue {
		return true // merges into the existing entry
	}
	return u.storeEntries < u.capacity
}

// StoreCommitted records a store entering the verification stage: the
// replayed store writes the VC, not the cache.
func (u *UniprocChecker) StoreCommitted(addr mem.Addr, val mem.Word) {
	u.stats.StoresTracked++
	i, ok := u.idx[addr]
	if !ok {
		i = u.alloc(addr)
	}
	e := &u.slab[i]
	if e.loadValue {
		// A committed store supersedes the cached load value.
		u.unlinkLoad(i)
		e.loadValue = false
	}
	if e.pending() == 0 {
		e.vals = e.vals[:0]
		e.head = 0
		u.storeEntries++
	}
	// Per-entry FIFO capacity is retained across reuse (vals[:0]).
	e.vals = append(e.vals, val)
}

// StorePerformed records a store reaching the cache with the value
// actually written. Every perform pops the oldest outstanding committed
// value for the word and compares it (Section 4.1 / Proof 1): same-word
// stores perform in commit order on a correct machine, so any corrupted,
// dropped, or reordered store surfaces as a mismatch on the spot.
func (u *UniprocChecker) StorePerformed(addr mem.Addr, written mem.Word, now sim.Cycle) {
	i, ok := u.idx[addr]
	if !ok || u.slab[i].pending() == 0 {
		// No outstanding committed store for this word: conservative
		// violation (a perform the checker never saw commit).
		u.stats.StoreMismatches++
		u.sink.Violation(Violation{Kind: UOStoreMismatch, Node: u.node, Block: addr.Block(), Cycle: now,
			Detail: fmt.Sprintf("store to %#x performed without a VC entry", addr)})
		return
	}
	e := &u.slab[i]
	expect := e.vals[e.head]
	e.head++
	if written != expect {
		u.stats.StoreMismatches++
		u.sink.Violation(Violation{Kind: UOStoreMismatch, Node: u.node, Block: addr.Block(), Cycle: now,
			Detail: fmt.Sprintf("store to %#x wrote %#x to the cache but VC holds %#x", addr, written, expect)})
	}
	if e.pending() > 0 {
		return
	}
	// Drained: the entry stops tracking stores.
	last := e.vals[len(e.vals)-1]
	e.vals = e.vals[:0]
	e.head = 0
	u.storeEntries--
	if u.cacheLoadValues {
		// Keep the word as a load-value entry: it is the newest local
		// view of memory.
		e.loadValue = true
		e.val = last
		u.linkLoad(i)
		return
	}
	u.freeEntry(i)
}

// CheckDrained verifies that every committed store has performed. Callers
// invoke it at points where the write buffer reports empty (membar
// retirement, program completion): a committed-but-never-performed store
// means the machine lost a store — the paper's "all committed operations
// perform eventually" invariant. Returns true when the VC is consistent.
func (u *UniprocChecker) CheckDrained(now sim.Cycle) bool {
	if u.storeEntries == 0 {
		return true
	}
	// Cold path: report the lowest pending word deterministically.
	var addr mem.Addr
	pending := 0
	first := true
	//dvmc:orderinsensitive min-reduction over pending entries; result is order-independent
	for a, i := range u.idx {
		if e := &u.slab[i]; e.pending() > 0 {
			if first || a < addr {
				addr = a
				pending = e.pending()
				first = false
			}
		}
	}
	u.stats.StoreMismatches++
	u.sink.Violation(Violation{Kind: UOStoreMismatch, Node: u.node, Block: addr.Block(), Cycle: now,
		Detail: fmt.Sprintf("store to %#x committed but never performed (%d value(s) pending at drain)", addr, pending)})
	return false
}

// LoadExecuted caches an executed load's value for replay (RMO
// optimisation). No-op unless load-value caching is enabled.
func (u *UniprocChecker) LoadExecuted(addr mem.Addr, val mem.Word) {
	if !u.cacheLoadValues {
		return
	}
	if i, ok := u.idx[addr]; ok {
		e := &u.slab[i]
		if !e.loadValue {
			return // a committed store's entry is newer than any load
		}
		e.val = val
		return
	}
	i := u.alloc(addr)
	e := &u.slab[i]
	e.loadValue = true
	e.val = val
	u.linkLoad(i)
	u.evictLoadEntries()
}

// ReplayLoad replays a load against the VC. If the VC holds the word, the
// comparison happens immediately and hit=true is returned. Otherwise the
// caller must read the cache hierarchy (bypassing the write buffer) and
// finish with CompareReplay. A mismatch is counted, not reported: the
// CPU flushes on it, so the replay cycle goes unused.
func (u *UniprocChecker) ReplayLoad(addr mem.Addr, orig mem.Word, _ sim.Cycle) (hit, match bool) {
	u.stats.LoadsReplayed++
	if i, ok := u.idx[addr]; ok {
		e := &u.slab[i]
		u.stats.VCHits++
		v := e.val
		if e.pending() > 0 {
			v = e.vals[len(e.vals)-1] // newest committed store
		}
		return true, u.compare(orig, v)
	}
	u.stats.VCMisses++
	return false, false
}

// CompareReplay finishes a VC-miss replay with the value read from the
// cache hierarchy.
func (u *UniprocChecker) CompareReplay(orig, replay mem.Word) bool {
	return u.compare(orig, replay)
}

// compare judges a replayed load. A mismatch is benign load-order
// mis-speculation in a fault-free run: the CPU squashes and re-executes
// on the false return, and LoadMismatches counts it. It is no violation;
// an injected fault it catches is attributed by the injection harness.
func (u *UniprocChecker) compare(orig, replay mem.Word) bool {
	if orig == replay {
		return true
	}
	u.stats.LoadMismatches++
	return false
}

// Reset empties the VC entirely (SafetyNet recovery).
func (u *UniprocChecker) Reset() {
	clear(u.idx)
	u.slab = u.slab[:0]
	u.free = u.free[:0]
	u.loadHead, u.loadTail = -1, -1
	u.storeEntries = 0
}

// Flush clears the VC (pipeline flush after a mismatch or recovery).
// Store entries are preserved: committed stores survive a flush — only
// speculative state (cached load values) is dropped.
func (u *UniprocChecker) Flush() {
	for i := u.loadHead; i >= 0; {
		e := &u.slab[i]
		next := e.next
		e.prev, e.next = -1, -1
		e.loadValue = false
		u.freeEntry(i)
		i = next
	}
	u.loadHead, u.loadTail = -1, -1
}

// Entries returns the VC occupancy for tests and stats.
func (u *UniprocChecker) Entries() int { return len(u.idx) }

// StoreEntries returns the number of words with committed-but-unperformed
// stores (tests and drain checks).
func (u *UniprocChecker) StoreEntries() int { return u.storeEntries }

// evictLoadEntries implements FIFO bounded caching of load values,
// keeping the VC at its configured capacity. Only load-value entries are
// evictable; store entries must stay until they perform.
func (u *UniprocChecker) evictLoadEntries() {
	for len(u.idx) > u.capacity && u.loadHead >= 0 {
		victim := u.loadHead
		u.unlinkLoad(victim)
		u.slab[victim].loadValue = false
		u.freeEntry(victim)
	}
}
