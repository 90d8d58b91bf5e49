package sim

// EventQueue schedules callbacks at future cycles. Events scheduled for
// the same cycle fire in scheduling order (stable), which keeps the
// simulation deterministic. The zero value is ready to use.
//
// The heap is hand-rolled over a plain slice rather than container/heap:
// the standard interface passes elements as `any`, boxing one event per
// Push/Pop — an allocation on every scheduled callback. The direct
// sift-up/sift-down below keeps the steady-state scheduling path
// allocation-free (the backing array amortises to zero once warm).
type EventQueue struct {
	h   []event
	seq uint64
}

type event struct {
	at  Cycle
	seq uint64 // tie-break: FIFO within a cycle
	fn  func()
}

// less orders events by cycle, then scheduling order.
func (q *EventQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *EventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *EventQueue) siftDown(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && q.less(r, l) {
			least = r
		}
		if !q.less(least, i) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}

// At schedules fn to run when the queue is ticked at cycle `at` or later.
func (q *EventQueue) At(at Cycle, fn func()) {
	q.seq++
	// The heap's backing array amortizes to the peak outstanding-event
	// count.
	q.h = append(q.h, event{at: at, seq: q.seq, fn: fn})
	q.siftUp(len(q.h) - 1)
}

// After schedules fn delay cycles after now.
func (q *EventQueue) After(now Cycle, delay Cycle, fn func()) { q.At(now+delay, fn) }

// Tick runs every event due at or before now. Events scheduled during
// Tick for the current cycle also run within the same Tick.
func (q *EventQueue) Tick(now Cycle) {
	for len(q.h) > 0 && q.h[0].at <= now {
		fn := q.h[0].fn
		n := len(q.h) - 1
		q.h[0] = q.h[n]
		q.h[n] = event{} // release the popped closure
		q.h = q.h[:n]
		if n > 0 {
			q.siftDown(0)
		}
		fn()
	}
}

// Next returns the cycle of the earliest pending event, or Never.
func (q *EventQueue) Next() Cycle {
	if len(q.h) == 0 {
		return Never
	}
	return q.h[0].at
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }
