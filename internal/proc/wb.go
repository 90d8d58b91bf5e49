package proc

import (
	"dvmc/internal/coherence"
	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// performFn is invoked by a write buffer when a store performs at the
// cache: seq is the store's sequence number, written the value that
// reached the cache, model the effective model it was pushed under.
type performFn func(seq uint64, addr mem.Addr, written mem.Word, model consistency.Model)

// WriteBuffer is the post-retirement store queue. Implementations differ
// per consistency model (paper Table 5): TSO uses an in-order buffer,
// PSO/RMO an out-of-order write-combining buffer. SC has none.
type WriteBuffer interface {
	// Push enqueues a retired store with the effective model it was
	// decoded under, which its perform callback reports; false means the
	// buffer is full and retirement must stall. SC/TSO-mode stores are
	// ordered: they must not be reordered with other ordered stores (on a
	// relaxed system, per the Table 8 mode-switching requirement).
	Push(seq uint64, addr mem.Addr, val mem.Word, model consistency.Model) bool
	// Lookup returns the newest buffered value for a word (store-to-load
	// forwarding).
	Lookup(addr mem.Addr) (mem.Word, bool)
	// Tick advances draining. A Tick that changes nothing (no drain to
	// start) stays that way until the buffer calls its constructor's
	// wake, which it does whenever its state changes other than by Push.
	Tick(now sim.Cycle)
	// Empty reports whether all stores have performed (membar condition).
	Empty() bool
	// Len returns the number of buffered (unperformed) stores.
	Len() int
	// Pending returns the buffered stores in commit (sequence) order, for
	// SafetyNet checkpoint capture.
	Pending() []PendingStore
	// Clear drops every buffered store (SafetyNet recovery).
	Clear()
}

// PendingStore is one committed-but-unperformed store in a write buffer.
type PendingStore struct {
	Seq  uint64
	Addr mem.Addr
	Val  mem.Word
}

// wbFault models injected write-buffer errors (Section 6.1: reorderings
// and incorrect forwarding in the write buffer, dropped stores).
type wbFault struct {
	dropSeq     uint64 // OOOWB: the store InjectDropNext picked at its push
	swapNext    bool   // drain the second-oldest entry before the oldest
	dropNext    bool   // discard the next store drained
	corruptNext bool   // corrupt the next store drained
	// fired records that an armed fault actually altered a drain. An
	// armed-but-dormant fault (no further eligible store drained within
	// the observation window) leaves no architectural trace; injection
	// campaigns use this to separate masked from escaped faults.
	fired bool
}

// InOrderWB is TSO's FIFO write buffer: one store drains at a time, in
// commit order, moving store misses off the critical path while
// preserving Store→Store order.
type InOrderWB struct {
	ctrl  coherence.Controller
	perf  performFn
	wake  func()
	cap   int
	queue []wbStore
	busy  bool
	fault wbFault

	// draining is the store currently at the cache; drainCB is the
	// completion closure, allocated once and reused for every drain so the
	// steady-state path is allocation-free.
	draining wbStore
	drainCB  func()
}

type wbStore struct {
	seq   uint64
	addr  mem.Addr
	val   mem.Word
	model consistency.Model
}

// orderedModel reports whether stores of model m are ordered: they must
// not be reordered with other ordered stores.
func orderedModel(m consistency.Model) bool { return m == consistency.TSO || m == consistency.SC }

var _ WriteBuffer = (*InOrderWB)(nil)

// NewInOrderWB builds the TSO write buffer. wake tells the owning core
// that the buffer changed: a drain started or completed, or a fault was
// armed.
func NewInOrderWB(ctrl coherence.Controller, capacity int, perf performFn, wake func()) *InOrderWB {
	return new(InOrderWB).init(ctrl, capacity, perf, wake)
}

// init makes w what NewInOrderWB builds, keeping its drain closure.
func (w *InOrderWB) init(ctrl coherence.Controller, capacity int, perf performFn, wake func()) *InOrderWB {
	*w = InOrderWB{ctrl: ctrl, cap: capacity, perf: perf, wake: wake, queue: w.queue[:0], drainCB: w.drainCB}
	return w
}

// Push implements WriteBuffer.
func (w *InOrderWB) Push(seq uint64, addr mem.Addr, val mem.Word, model consistency.Model) bool {
	if len(w.queue) >= w.cap {
		return false
	}
	// Queue capacity amortizes to the configured bound; steady state reuses
	// the backing array.
	w.queue = append(w.queue, wbStore{seq: seq, addr: addr, val: val, model: model})
	return true
}

// Lookup implements WriteBuffer.
func (w *InOrderWB) Lookup(addr mem.Addr) (mem.Word, bool) {
	for i := len(w.queue) - 1; i >= 0; i-- {
		if w.queue[i].addr == addr {
			return w.queue[i].val, true
		}
	}
	return 0, false
}

// Empty implements WriteBuffer.
func (w *InOrderWB) Empty() bool { return len(w.queue) == 0 && !w.busy }

// Len implements WriteBuffer.
func (w *InOrderWB) Len() int { return len(w.queue) }

// Tick implements WriteBuffer: drain the head store.
func (w *InOrderWB) Tick(now sim.Cycle) {
	if w.busy || len(w.queue) == 0 {
		return
	}
	w.wake()
	idx := 0
	if w.fault.swapNext && len(w.queue) > 1 {
		idx = 1 // injected fault: younger store drains first
		w.fault.swapNext = false
		w.fault.fired = true
	}
	st := w.queue[idx]
	w.queue = append(w.queue[:idx], w.queue[idx+1:]...)
	if w.fault.dropNext {
		// Injected fault: the store vanishes; the buffer believes it
		// performed.
		w.fault.dropNext = false
		w.fault.fired = true
		return
	}
	if w.fault.corruptNext {
		st.val ^= 1 << 7
		w.fault.corruptNext = false
		w.fault.fired = true
	}
	if w.drainCB == nil {
		w.drainCB = func() {
			st := w.draining
			w.busy = false
			w.perf(st.seq, st.addr, st.val, st.model)
			w.wake()
		}
	}
	w.busy = true
	w.draining = st
	w.ctrl.Store(st.addr, st.val, w.drainCB)
}

// Pending implements WriteBuffer.
func (w *InOrderWB) Pending() []PendingStore {
	out := make([]PendingStore, 0, len(w.queue))
	for _, st := range w.queue {
		out = append(out, PendingStore{Seq: st.seq, Addr: st.addr, Val: st.val})
	}
	return out
}

// Clear implements WriteBuffer.
func (w *InOrderWB) Clear() {
	w.queue = nil
	w.busy = false
}

// InjectReorder arms a one-shot illegal drain order fault.
func (w *InOrderWB) InjectReorder() {
	w.fault.swapNext = true
	w.wake()
}

// InjectDropNext arms a one-shot dropped-store fault for the next drain.
func (w *InOrderWB) InjectDropNext() {
	w.fault.dropNext = true
	w.wake()
}

// InjectCorruptNext arms a one-shot corruption fault for the next drain.
func (w *InOrderWB) InjectCorruptNext() {
	w.fault.corruptNext = true
	w.wake()
}

// FaultFired reports whether an armed fault actually altered a drain.
func (w *InOrderWB) FaultFired() bool { return w.fault.fired }

// OOOWB is the out-of-order, write-combining buffer of PSO/RMO (paper
// Table 5: "optimized store issue policy to reduce write buffer stalls
// and coherence traffic"). Stores coalesce per block; multiple blocks
// drain concurrently, oldest entry first. Ordered (TSO/SC-mode) stores
// act as barriers: they drain only when oldest, and younger stores never
// pass a pending ordered store.
type OOOWB struct {
	ctrl        coherence.Controller
	perf        performFn
	wake        func()
	capStores   int
	outstanding int
	maxOut      int
	entries     []*oooEntry
	stores      int
	fault       wbFault

	// free recycles drained entries (and their constituent slices and
	// drain closures) so the steady-state push/drain path is
	// allocation-free: the buffer's own list, or its core's Spare's, which
	// every buffer of the system shares.
	free *sim.FreeList[oooEntry]
}

type oooEntry struct {
	block        mem.BlockAddr
	words        [mem.WordsPerBlock]mem.Word
	valid        [mem.WordsPerBlock]bool
	constituents []wbStore
	ordered      bool
	draining     bool

	// Drain progress: drainWords lists the word indices still to write,
	// cursor the next one; cb is the per-entry completion closure,
	// allocated once per pooled entry and reused across drains.
	drainWords []int
	cursor     int
	cb         func()
	owner      *OOOWB // the buffer that took it
}

var _ WriteBuffer = (*OOOWB)(nil)

// NewOOOWB builds the PSO/RMO write buffer. maxOutstanding bounds
// concurrent block drains; wake is as for NewInOrderWB.
func NewOOOWB(ctrl coherence.Controller, capacity, maxOutstanding int, perf performFn, wake func()) *OOOWB {
	return new(OOOWB).init(ctrl, capacity, maxOutstanding, perf, wake, new(sim.FreeList[oooEntry]))
}

// init makes w what NewOOOWB builds, taking its entries from free.
func (w *OOOWB) init(ctrl coherence.Controller, capacity, maxOutstanding int, perf performFn, wake func(), free *sim.FreeList[oooEntry]) *OOOWB {
	clear(w.entries)
	*w = OOOWB{ctrl: ctrl, capStores: capacity, maxOut: maxOutstanding, perf: perf, wake: wake,
		entries: w.entries[:0], free: free}
	return w
}

// Push implements WriteBuffer, coalescing same-block stores. While an
// ordered (TSO/SC-mode) store is buffered, coalescing is suspended:
// merging a young store into an entry older than the ordered one would
// let it perform first and violate the ordered store's Store→Store
// constraint.
//
// Coalescing targets only the NEWEST entry for the block. Merging into
// an older same-block entry — which can exist after an ordered store
// suspended coalescing and later drained — would let this store's value
// reach the cache before a younger buffered store to the same word,
// reordering same-word stores in violation of Uniprocessor Ordering
// (a real write-buffer bug the VC checker caught; see the
// false-alarm-wb-rmw-store fuzzer reproducer, which was no false alarm).
func (w *OOOWB) Push(seq uint64, addr mem.Addr, val mem.Word, model consistency.Model) bool {
	ordered := orderedModel(model)
	if w.fault.dropNext {
		w.fault.dropNext = false
		w.fault.dropSeq = seq
	}
	b := addr.Block()
	if !ordered && !w.hasOrdered() {
		for i := len(w.entries) - 1; i >= 0; i-- {
			e := w.entries[i]
			if e.block != b {
				continue
			}
			if e.draining || e.ordered {
				break // newest same-block entry ineligible: allocate fresh
			}
			e.words[addr.WordIndex()] = val
			e.valid[addr.WordIndex()] = true
			// constituents is reset to [:0] on recycle; its capacity
			// amortizes to the per-entry store bound.
			e.constituents = append(e.constituents, wbStore{seq: seq, addr: addr, val: val, model: model})
			w.stores++
			return true
		}
	}
	if w.stores >= w.capStores {
		return false
	}
	e := w.free.Get()
	e.owner = w
	e.block = b
	e.ordered = ordered
	e.words[addr.WordIndex()] = val
	e.valid[addr.WordIndex()] = true
	// constituents is reset to [:0] on recycle; its capacity amortizes to
	// the per-entry store bound.
	e.constituents = append(e.constituents, wbStore{seq: seq, addr: addr, val: val, model: model})
	// entries grows to the configured entry capacity; removal keeps the
	// backing array.
	w.entries = append(w.entries, e)
	w.stores++
	return true
}

// Lookup implements WriteBuffer.
func (w *OOOWB) Lookup(addr mem.Addr) (mem.Word, bool) {
	b := addr.Block()
	for i := len(w.entries) - 1; i >= 0; i-- {
		e := w.entries[i]
		if e.block == b && e.valid[addr.WordIndex()] {
			return e.words[addr.WordIndex()], true
		}
	}
	return 0, false
}

// Empty implements WriteBuffer.
func (w *OOOWB) Empty() bool { return len(w.entries) == 0 && w.outstanding == 0 }

// Len implements WriteBuffer.
func (w *OOOWB) Len() int { return w.stores }

// Tick implements WriteBuffer: start eligible drains. An ordered entry
// is a full barrier: it drains only once every older entry has finished
// (entries leave the slice at finish), and no younger entry may start
// while an ordered entry is pending or draining.
func (w *OOOWB) Tick(now sim.Cycle) {
	for i := 0; i < len(w.entries) && w.outstanding < w.maxOut; i++ {
		e := w.entries[i]
		if e.draining {
			continue
		}
		if e.ordered {
			if i == 0 {
				w.drain(e)
			}
			// Nothing younger may start behind a pending ordered store.
			return
		}
		if w.olderOrderedBlocking(i) {
			continue
		}
		if w.blockDraining(e.block) {
			// Same-word stores must perform in program order: never
			// drain two entries for one block concurrently.
			continue
		}
		w.drain(e)
	}
}

// blockDraining reports whether an entry for the block is in flight.
func (w *OOOWB) blockDraining(b mem.BlockAddr) bool {
	for _, e := range w.entries {
		if e.draining && e.block == b {
			return true
		}
	}
	return false
}

func (w *OOOWB) hasOrdered() bool {
	for _, e := range w.entries {
		if e.ordered {
			return true
		}
	}
	return false
}

// olderOrderedBlocking reports whether an ordered entry (pending or
// draining) precedes index idx.
func (w *OOOWB) olderOrderedBlocking(idx int) bool {
	for i := 0; i < idx; i++ {
		if w.entries[i].ordered {
			return true
		}
	}
	return false
}

// drain writes an entry's dirty words to the cache sequentially, then
// reports each constituent store performed in commit order. An armed
// drop fault removes the victim store's word (unless a later store also
// wrote it), modelling buffer-control corruption that loses the store.
func (w *OOOWB) drain(e *oooEntry) {
	w.wake()
	e.draining = true
	w.outstanding++
	dropped := uint64(0)
	if w.fault.dropSeq != 0 {
		for _, st := range e.constituents {
			if st.seq == w.fault.dropSeq {
				dropped = st.seq
			}
		}
	}
	skipWord := -1
	if dropped != 0 {
		for _, st := range e.constituents {
			if st.seq == dropped {
				skipWord = st.addr.WordIndex()
			} else if st.addr.WordIndex() == skipWord {
				skipWord = -1 // another store also wrote the word
			}
		}
	}
	e.drainWords = e.drainWords[:0]
	for i, v := range e.valid {
		if v && i != skipWord {
			// drainWords is reset to [:0] on recycle; its capacity
			// amortizes to the block word count.
			e.drainWords = append(e.drainWords, i)
		}
	}
	e.cursor = 0
	if e.cb == nil {
		e.cb = func() { e.owner.stepDrain(e) }
	}
	w.stepDrain(e)
}

// stepDrain writes the next dirty word of a draining entry to the cache,
// or finishes the drain once every word is written. It is both the drain
// kick-off and the store-completion callback (e.cb), so each entry's
// whole drain reuses one closure.
func (w *OOOWB) stepDrain(e *oooEntry) {
	if e.cursor >= len(e.drainWords) {
		w.finish(e)
		return
	}
	i := e.drainWords[e.cursor]
	e.cursor++
	w.ctrl.Store(e.block.WordAddr(i), e.words[i], e.cb)
}

func (w *OOOWB) finish(e *oooEntry) {
	w.outstanding--
	found := false
	for i, c := range w.entries {
		if c == e {
			copy(w.entries[i:], w.entries[i+1:])
			w.entries[len(w.entries)-1] = nil
			w.entries = w.entries[:len(w.entries)-1]
			found = true
			break
		}
	}
	w.stores -= len(e.constituents)
	for _, st := range e.constituents {
		if w.fault.dropSeq != 0 && st.seq == w.fault.dropSeq {
			w.fault.dropSeq = 0
			w.fault.fired = true
			continue
		}
		w.perf(st.seq, st.addr, st.val, st.model)
	}
	if found {
		w.recycle(e)
	}
	// Also when an injected fault swallowed the only store and no
	// perform callback ran: Empty and Len just changed.
	w.wake()
}

// recycle returns a drained entry to the free list, keeping its slices'
// capacity and its drain closure. Entries orphaned by Clear (SafetyNet
// recovery flushed the buffer while their drain was in flight) are not
// recycled: their completion callback may still fire.
func (w *OOOWB) recycle(e *oooEntry) {
	*e = oooEntry{constituents: e.constituents[:0], drainWords: e.drainWords[:0], cb: e.cb}
	w.free.Put(e)
}

// Pending implements WriteBuffer.
func (w *OOOWB) Pending() []PendingStore {
	var out []PendingStore
	for _, e := range w.entries {
		for _, st := range e.constituents {
			out = append(out, PendingStore{Seq: st.seq, Addr: st.addr, Val: st.val})
		}
	}
	// Sort by sequence (commit order) so snapshot application is exact.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq < out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Clear implements WriteBuffer.
func (w *OOOWB) Clear() {
	w.entries = nil
	w.stores = 0
	w.outstanding = 0
}

// InjectDropNext arms a one-shot lost-store fault for the next push:
// that store's perform notification vanishes, modelling buffer-control
// corruption.
func (w *OOOWB) InjectDropNext() {
	w.fault.dropNext = true
	w.wake()
}

// FaultFired reports whether an armed fault actually altered a drain.
func (w *OOOWB) FaultFired() bool { return w.fault.fired }

// NewWriteBufferFor builds the write buffer matching a model's Table 5
// optimization, or nil for SC (no write buffer).
func NewWriteBufferFor(model consistency.Model, cfg Config, ctrl coherence.Controller, perf performFn, wake func()) WriteBuffer {
	return newWriteBuffer(nil, model, cfg, ctrl, perf, wake, new(sim.FreeList[oooEntry]))
}

// newWriteBuffer is NewWriteBufferFor on old, a retired core's buffer,
// where it is of the kind model needs, taking combining entries from free.
func newWriteBuffer(old WriteBuffer, model consistency.Model, cfg Config, ctrl coherence.Controller, perf performFn, wake func(), free *sim.FreeList[oooEntry]) WriteBuffer {
	switch model {
	case consistency.SC:
		return nil
	case consistency.TSO, consistency.PC:
		w, _ := old.(*InOrderWB)
		return sim.OrNew(w).init(ctrl, cfg.WBEntries, perf, wake)
	case consistency.PSO, consistency.RMO:
		w, _ := old.(*OOOWB)
		return sim.OrNew(w).init(ctrl, cfg.WBEntries, wbOutstand, perf, wake, free)
	default:
		panic("proc: unknown model")
	}
}
