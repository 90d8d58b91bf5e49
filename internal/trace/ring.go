package trace

// ring is a fixed-capacity event buffer the recorder fills and drains
// wholesale. Not safe for concurrent use (the simulator is
// single-goroutine).
type ring struct {
	buf []Event
	n   int // number of buffered events
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Event, capacity)}
}

// full reports whether the next push needs a drain first.
func (r *ring) full() bool { return r.n == len(r.buf) }

// len returns the number of buffered events.
func (r *ring) len() int { return r.n }

// push appends ev; the ring must not be full.
func (r *ring) push(ev Event) {
	r.buf[r.n] = ev
	r.n++
}

// drain calls fn on every buffered event in arrival order and empties the
// ring.
func (r *ring) drain(fn func(Event)) {
	for _, ev := range r.buf[:r.n] {
		fn(ev)
	}
	r.n = 0
}
