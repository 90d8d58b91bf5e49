package trace

import (
	"bytes"
	"io"
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

func benchEvent(i int) Event {
	return Event{
		Kind:  EvCommit,
		Node:  uint8(i & 3),
		Class: consistency.Store,
		Model: consistency.TSO,
		Seq:   uint64(i),
		Addr:  0x100,
		Val:   0x42,
		Time:  1,
	}
}

func BenchmarkTraceWrite(b *testing.B) {
	w, err := NewWriter(io.Discard, Meta{Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTraceWriteSteadyStateAllocFree(t *testing.T) {
	w, err := NewWriter(io.Discard, Meta{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func() {
		if err := w.Write(benchEvent(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < 64; j++ {
		step()
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Errorf("trace encode steady state: %.2f allocs/op, want 0", allocs)
	}
}

// TestRecorderSteadyStateAllocFree pins Recorder.Emit's zero-allocation
// claim across spills: each measured run emits one ring's worth of
// events, so every run encodes and drains the ring once. The encoded
// bytes are discarded between runs, which keeps the output buffer's
// amortized growth — the one allocation the recorder makes by design —
// outside the measurement.
func TestRecorderSteadyStateAllocFree(t *testing.T) {
	rec, err := NewRecorder(Meta{Nodes: 4, Model: consistency.TSO})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	run := func() {
		for j := 0; j < DefaultRingEvents; j++ {
			rec.Emit(benchEvent(i))
			i++
		}
		rec.buf.Reset()
	}
	run()
	run()
	spills := rec.Stats().Spills
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("recorder steady state: %.2f allocs per %d events, want 0", allocs, DefaultRingEvents)
	}
	if got := rec.Stats().Spills - spills; got != 51 {
		t.Errorf("%d spills in 51 runs, want one per run", got)
	}
}

// TestTraceReadSteadyStateAllocFree pins Reader.Next's zero-allocation
// claim over a trace several 64 KiB refills long: commits and performs
// with multi-byte seq, addr and value varints and signed time deltas, so
// both varint paths and the refill run inside the measured steps.
func TestTraceReadSteadyStateAllocFree(t *testing.T) {
	const n = 60_000
	events := make([]Event, n)
	for i := range events {
		ev := benchEvent(i)
		ev.Kind = EvCommit + Kind(i&1)
		ev.Seq = uint64(i) << 20
		ev.Addr = mem.Addr(0x1000 + 8*(i%4096))
		ev.Val = mem.Word(^uint64(i))
		ev.Time = sim.Cycle(100 + i + 2*(i%3)) // every third delta is negative
		events[i] = ev
	}
	data, err := Encode(Meta{Nodes: 4, Model: consistency.TSO}, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4*(64<<10) {
		t.Fatalf("trace is %d bytes; want several refills", len(data))
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func() {
		ev, err := r.Next()
		if err != nil || ev != events[i] {
			t.Fatalf("event %d: %+v, %v; want %+v", i, ev, err, events[i])
		}
		i++
	}
	for j := 0; j < 1000; j++ {
		step()
	}
	if allocs := testing.AllocsPerRun(n-2000, step); allocs != 0 {
		t.Errorf("trace decode steady state: %.2f allocs/op, want 0", allocs)
	}
}
