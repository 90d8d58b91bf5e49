package span

import (
	"sort"

	"dvmc/internal/sim"
)

// openKey identifies the at-most-one open transaction span per
// (requestor node, block address), packed into one word so the open-map
// probe on the per-message hot path hashes a single uint64. The packing
// is exact for node IDs below 256 and block addresses below 2^56 —
// both orders of magnitude above what the simulator configures.
type openKey uint64

func makeKey(node int32, addr uint64) openKey {
	return openKey(addr<<8 | uint64(uint8(node)))
}

// Stats counts recorder activity, including what the bounded storage
// had to shed.
type Stats struct {
	// Spans is the number of spans opened (including later-evicted ones).
	Spans uint64
	// SpansDropped counts spans lost to capacity: evicted closed spans
	// plus new spans refused while every retained span was still open.
	SpansDropped uint64
	// Events is the number of child events stored.
	Events uint64
	// EventsDropped counts child events shed by full per-span storage.
	EventsDropped uint64
	// Orphans counts protocol hops that matched no open transaction
	// span. Sharer-side invalidations and clean evictions legitimately
	// orphan (no requestor-side transaction is in flight for them), so
	// a nonzero count is expected, not an error.
	Orphans uint64
}

// Recorder is the span store. All storage is preallocated at
// construction: span slots, their per-span event arrays, the retention
// ring, and the free list. The one dynamic structure is the
// open-transaction map, which is only ever read, inserted into, and
// deleted from (never ranged), so it is deterministic and, once warm,
// allocation-free.
type Recorder struct {
	slots  []Span
	ring   []int32 // retained slot indices, oldest at head
	head   int
	count  int
	free   []int32
	open   map[openKey]int32
	nextID uint64
	stats  Stats
}

// NewRecorder builds a recorder of DefaultCap spans with DefaultEventCap
// events each. The caller decides whether to record (Config.Enabled);
// the sizes are the package's.
func NewRecorder(Config) *Recorder {
	r := &Recorder{
		slots: make([]Span, DefaultCap),
		ring:  make([]int32, DefaultCap),
		free:  make([]int32, 0, DefaultCap),
		open:  make(map[openKey]int32, DefaultCap),
	}
	for i := DefaultCap - 1; i >= 0; i-- {
		r.slots[i].Events = make([]Event, 0, DefaultEventCap)
		r.free = append(r.free, int32(i))
	}
	return r
}

// acquire returns a free slot index, evicting the oldest retained span
// if it is closed, or -1 (dropping the new span) if every retained span
// is still open.
func (r *Recorder) acquire() int32 {
	if n := len(r.free); n > 0 {
		idx := r.free[n-1]
		r.free = r.free[:n-1]
		r.ringPush(idx)
		return idx
	}
	if r.count > 0 {
		idx := r.ring[r.head]
		if r.slots[idx].Outcome != OutcomeOpen {
			r.head = (r.head + 1) % len(r.ring)
			r.count--
			r.stats.SpansDropped++
			r.ringPush(idx)
			return idx
		}
	}
	r.stats.SpansDropped++
	return -1
}

func (r *Recorder) ringPush(idx int32) {
	r.ring[(r.head+r.count)%len(r.ring)] = idx
	r.count++
}

// openAt initialises slot idx as a fresh open span.
func (r *Recorder) openAt(idx int32, fam Family, kind uint8, node int32, addr uint64, now sim.Cycle) *Span {
	s := &r.slots[idx]
	ev := s.Events[:0]
	*s = Span{
		ID: r.nextID, Family: fam, Kind: kind, Node: node, Addr: addr,
		Start: now, End: now, Outcome: OutcomeOpen, Events: ev,
	}
	r.nextID++
	r.stats.Spans++
	return s
}

// addEvent appends a child event within the span's fixed capacity.
func (r *Recorder) addEvent(s *Span, label Label, t sim.Cycle, a, b uint64) {
	if len(s.Events) == cap(s.Events) {
		s.Dropped++
		r.stats.EventsDropped++
		return
	}
	s.Events = append(s.Events, Event{Label: label, Time: t, A: a, B: b})
	r.stats.Events++
}

// TxnBegin opens a transaction span for (node, addr). If one is already
// open on that key — a displaced retry — the old span closes as aborted
// and the new one takes the key.
func (r *Recorder) TxnBegin(node int32, addr uint64, kind uint8, now sim.Cycle) {
	k := makeKey(node, addr)
	if idx, ok := r.open[k]; ok {
		s := &r.slots[idx]
		s.End = now
		s.Outcome = OutcomeAborted
		delete(r.open, k)
	}
	idx := r.acquire()
	if idx < 0 {
		return
	}
	r.openAt(idx, FamilyTxn, kind, node, addr, now)
	r.open[k] = idx
}

// TxnEnd closes the open transaction span for (node, addr), reporting
// whether one was open.
func (r *Recorder) TxnEnd(node int32, addr uint64, outcome Outcome, now sim.Cycle) bool {
	k := makeKey(node, addr)
	idx, ok := r.open[k]
	if !ok {
		return false
	}
	delete(r.open, k)
	s := &r.slots[idx]
	s.End = now
	s.Outcome = outcome
	return true
}

// TxnEvent attaches a child event to the open transaction span for
// (node, addr), reporting whether one was open. Misses are NOT counted
// as orphans here — callers probe several candidate keys per hop and
// call Orphan once when all miss.
func (r *Recorder) TxnEvent(node int32, addr uint64, label Label, now sim.Cycle, a, b uint64) bool {
	idx, ok := r.open[makeKey(node, addr)]
	if !ok {
		return false
	}
	r.addEvent(&r.slots[idx], label, now, a, b)
	return true
}

// Orphan counts a protocol hop that matched no open transaction span.
func (r *Recorder) Orphan() { r.stats.Orphans++ }

// AbortOpen closes every open transaction span as aborted — the
// system-recovery hook: a rollback discards the in-flight transactions
// whose spans would otherwise dangle open across the restored state.
func (r *Recorder) AbortOpen(now sim.Cycle) {
	for i := 0; i < r.count; i++ {
		idx := r.ring[(r.head+i)%len(r.ring)]
		s := &r.slots[idx]
		if s.Outcome != OutcomeOpen {
			continue
		}
		s.End = now
		s.Outcome = OutcomeAborted
		delete(r.open, makeKey(s.Node, s.Addr))
	}
}

// Stats returns the recorder's activity counters.
func (r *Recorder) Stats() Stats { return r.stats }

// Drain returns a deep copy of every retained span, sorted by
// (Start, ID) — the canonical dump order. Spans still open have their
// End stamped to now on the copy but keep OutcomeOpen. The recorder is
// not modified; Drain may be called repeatedly.
func (r *Recorder) Drain(now sim.Cycle) []Span {
	out := make([]Span, 0, r.count)
	for i := 0; i < r.count; i++ {
		idx := r.ring[(r.head+i)%len(r.ring)]
		out = append(out, copySpan(&r.slots[idx], now))
	}
	sortSpans(out)
	return out
}

func copySpan(s *Span, now sim.Cycle) Span {
	c := *s
	if c.Outcome == OutcomeOpen {
		c.End = now
	}
	c.Events = append([]Event(nil), s.Events...)
	return c
}

// sortSpans orders spans by (Start, ID) — ID breaks start-cycle ties by
// open order, so the order is total and deterministic.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spanLess(&spans[i], &spans[j]) })
}

func spanLess(a, b *Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}
