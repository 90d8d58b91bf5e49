package trace

import (
	"bytes"
	"fmt"
)

// RecorderStats reports capture accounting.
type RecorderStats struct {
	// Events is the number of commits, performs and recovery markers
	// emitted to the recorder: the events the oracles judge and count.
	// The annotation records are written but not counted.
	Events uint64
	// Spills is the number of times the ring was encoded and drained.
	Spills uint64
}

// Recorder buffers events in a ring and encodes them into the binary trace
// format. The ring is drained into the encoder whenever it fills, so the
// complete run is captured. A Recorder is a Sink.
//
// Not safe for concurrent use; the simulator is single-goroutine.
type Recorder struct {
	ring     *ring
	buf      bytes.Buffer
	w        *Writer
	stats    RecorderStats
	out      []byte
	err      error
	finished bool
}

// NewRecorder returns a recorder for a run described by meta.
func NewRecorder(meta Meta) (*Recorder, error) {
	r := &Recorder{ring: newRing(DefaultRingEvents)}
	w, err := NewWriter(&r.buf, meta)
	if err != nil {
		return nil, err
	}
	r.w = w
	return r, nil
}

// Emit implements Sink. The hot path is one ring store; encoding happens in
// batches when the ring fills.
func (r *Recorder) Emit(ev Event) {
	if r.finished {
		return
	}
	if ev.Kind < EvCheckpoint {
		r.stats.Events++
	}
	if r.ring.full() {
		r.spill()
	}
	r.ring.push(ev)
}

// spill encodes and drains the ring.
func (r *Recorder) spill() {
	if r.ring.len() == 0 {
		return
	}
	r.stats.Spills++
	r.ring.drain(func(ev Event) {
		if r.err == nil {
			r.err = r.w.Write(ev)
		}
	})
}

// Finish flushes remaining events, closes the stream, and returns the
// encoded trace. Idempotent: subsequent calls return the same bytes. After
// Finish, further Emit calls are ignored.
func (r *Recorder) Finish() ([]byte, error) {
	if r.finished {
		return r.out, r.err
	}
	r.finished = true
	r.spill()
	if r.err == nil {
		r.err = r.w.Close()
	}
	if r.err != nil {
		return nil, fmt.Errorf("trace: finish: %w", r.err)
	}
	r.out = r.buf.Bytes()
	return r.out, nil
}

// Stats returns capture accounting.
func (r *Recorder) Stats() RecorderStats { return r.stats }
