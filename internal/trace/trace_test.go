package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dvmc/internal/consistency"
)

func sampleMeta() Meta {
	return Meta{Version: Version, Nodes: 4, Model: consistency.TSO, Protocol: 1, Seed: 42}
}

// sampleEvents exercises every field shape the codec supports: loads,
// stores, membars, RMW commits and performs, forwarded loads, a recovery
// marker, one checkpoint, violation and fault record each, large varint
// values, and negative time deltas (cross-CPU callback timestamps can be
// up to one cycle stale; a violation is stamped with its detection
// cycle).
func sampleEvents() []Event {
	return []Event{
		{Kind: EvCommit, Node: 0, Class: consistency.Store, Model: consistency.TSO,
			Seq: 1, Addr: 0x40, Val: 7, Time: 10},
		{Kind: EvPerform, Node: 0, Class: consistency.Store, Model: consistency.TSO,
			Seq: 1, Addr: 0x40, Val: 7, Time: 12},
		{Kind: EvCommit, Node: 1, Class: consistency.Load, Model: consistency.RMO,
			Seq: 5, Addr: 0x1234_5678_9ab8, Val: 0xdead_beef_cafe_f00d, Time: 11}, // negative delta
		{Kind: EvPerform, Node: 1, Class: consistency.Load, Fwd: true, Model: consistency.RMO,
			Seq: 5, Addr: 0x1234_5678_9ab8, Val: 0xdead_beef_cafe_f00d, Time: 11},
		{Kind: EvCommit, Node: 2, Class: consistency.Membar, Mask: consistency.SL | consistency.SS,
			Model: consistency.PSO, Seq: 9, Time: 20},
		{Kind: EvPerform, Node: 2, Class: consistency.Membar, Mask: consistency.SL | consistency.SS,
			Model: consistency.PSO, Seq: 9, Time: 25},
		{Kind: EvCommit, Node: 3, Class: consistency.Store, IsRMW: true, Model: consistency.SC,
			Seq: 2, Addr: 0x80, Val: 0, Time: 30},
		{Kind: EvPerform, Node: 3, Class: consistency.Store, IsRMW: true, Model: consistency.SC,
			Seq: 2, Addr: 0x80, Val: 99, Val2: 98, Time: 33},
		{Kind: EvCheckpoint, Seq: 3, Time: 34},
		{Kind: EvViolation, Node: 2, Seq: 4, Addr: 0x1234_5678_9ac0, Time: 33},
		{Kind: EvRecover, Node: 0, Val: 34, Time: 40},
		{Kind: EvCommit, Node: 0, Class: consistency.Load, Model: consistency.TSO,
			Seq: 6, Addr: 0x40, Val: 0, Time: 45},
		{Kind: EvPerform, Node: 0, Class: consistency.Load, Model: consistency.TSO,
			Seq: 6, Addr: 0x40, Val: 0, Time: 45},
		{Kind: EvFault, Node: 3, Seq: 19, Val: 31, Val2: 32, Mask: 1, Time: 50},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	data, err := Encode(meta, events)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	gotMeta, gotEvents, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotMeta != meta {
		t.Errorf("meta round-trip: got %+v want %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Errorf("events round-trip mismatch:\n got %v\nwant %v", gotEvents, events)
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	data, err := Encode(sampleMeta(), nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	meta, events, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(events) != 0 || meta != sampleMeta() {
		t.Errorf("empty trace: got %d events, meta %+v", len(events), meta)
	}
}

func TestCodecDetectsCorruption(t *testing.T) {
	data, err := Encode(sampleMeta(), sampleEvents())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Flip one bit in every byte position in turn; decoding must never
	// silently succeed with different content.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		meta, events, err := Decode(mut)
		if err == nil {
			if meta == sampleMeta() && reflect.DeepEqual(events, sampleEvents()) {
				t.Fatalf("byte %d: corruption produced identical decode with no error", i)
			}
			t.Fatalf("byte %d: corruption decoded silently", i)
		}
	}
	// Truncation must be detected too.
	if _, _, err := Decode(data[:len(data)-1]); err == nil {
		t.Error("truncated trace decoded silently")
	}
	if _, err := NewReader(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadMagic) {
		t.Error("bad magic not detected")
	}
}

// TestRecorderSpillCapturesAll emits more than a ring's worth of events,
// so the ring spills several times mid-run, and checks that the trace
// holds every event in emission order.
func TestRecorderSpillCapturesAll(t *testing.T) {
	meta, sample := sampleMeta(), sampleEvents()
	var events []Event
	for len(events) < 2*DefaultRingEvents+3 {
		events = append(events, sample...)
	}
	rec, err := NewRecorder(meta)
	if err != nil {
		t.Fatalf("new recorder: %v", err)
	}
	for _, ev := range events {
		rec.Emit(ev)
	}
	data, err := rec.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	_, got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("spill recorder lost or reordered events: got %d, want %d", len(got), len(events))
	}
	var judged uint64 // the annotations are written, not counted
	for _, ev := range events {
		if ev.Kind < EvCheckpoint {
			judged++
		}
	}
	st := rec.Stats()
	if st.Events != judged || st.Spills != 3 {
		t.Errorf("stats: %+v, want %d events in 3 spills", st, judged)
	}
	// Idempotent Finish.
	again, err := rec.Finish()
	if err != nil || !reflect.DeepEqual(again, data) {
		t.Error("Finish not idempotent")
	}
	// Emit after Finish is ignored.
	rec.Emit(events[0])
	if rec.Stats().Events != st.Events {
		t.Error("Emit after Finish was counted")
	}
}
