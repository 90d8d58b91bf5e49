package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// streamFixture builds a small multi-event trace and returns its bytes.
func streamFixture(t *testing.T, n int) (Meta, []Event, []byte) {
	t.Helper()
	meta := Meta{Version: Version, Nodes: 2, Model: consistency.TSO, Seed: 7}
	var events []Event
	for i := 0; i < n; i++ {
		ev := Event{
			Kind: EvCommit, Node: uint8(i % 2), Class: consistency.Store,
			Model: consistency.TSO, Seq: uint64(i/2 + 1),
			Addr: mem.Addr(8 * (i % 16)), Val: mem.Word(i + 1), Time: sim.Cycle(i * 3),
		}
		if i%3 == 0 {
			ev.Kind = EvPerform
		}
		events = append(events, ev)
	}
	data, err := Encode(meta, events)
	if err != nil {
		t.Fatal(err)
	}
	return meta, events, data
}

// TestReaderIncremental decodes via NewReader/Next and must agree with
// the batch Decode, including Count and Offset bookkeeping.
func TestReaderIncremental(t *testing.T) {
	meta, events, data := streamFixture(t, 257)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() != meta {
		t.Fatalf("meta = %+v, want %+v", r.Meta(), meta)
	}
	var got []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("event %d: %v", len(got), err)
		}
		got = append(got, ev)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
	if r.Count() != uint64(len(events)) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(events))
	}
	if r.Offset() != int64(len(data)) {
		t.Fatalf("Offset = %d, want %d", r.Offset(), len(data))
	}
	// EOF is sticky.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next = %v, want io.EOF", err)
	}
}

// TestReaderTornTail is the torn-tail regression: a trace cut mid-stream
// (a dead pipe, a partial copy) must fail with a positioned
// io.ErrUnexpectedEOF naming the event index and byte offset where the
// stream tore — not a generic checksum mismatch.
func TestReaderTornTail(t *testing.T) {
	_, _, data := streamFixture(t, 64)
	for _, cut := range []int{len(data) - 1, len(data) - 3, len(data) * 3 / 4, len(data) / 2} {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		var n uint64
		for {
			_, err = r.Next()
			if err != nil {
				break
			}
			n++
		}
		if err == io.EOF {
			t.Fatalf("cut %d: torn tail decoded cleanly", cut)
		}
		var pe *PosError
		if !errors.As(err, &pe) {
			t.Fatalf("cut %d: error %v (%T) is not a *PosError", cut, err, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("cut %d: cause = %v, want unexpected EOF or checksum", cut, pe.Err)
		}
		if pe.Record != n {
			t.Fatalf("cut %d: positioned at event %d, but %d events decoded", cut, pe.Record, n)
		}
		if pe.Offset <= 0 || pe.Offset > int64(cut) {
			t.Fatalf("cut %d: offset %d outside the torn stream", cut, pe.Offset)
		}
		if !strings.Contains(err.Error(), "record ") || !strings.Contains(err.Error(), "offset ") {
			t.Fatalf("cut %d: message %q lacks position", cut, err)
		}
	}
}

// TestReaderFlippedByte is the mid-stream corruption regression: every
// single-byte flip must surface as an error, and the error must carry a
// position inside the stream. Flips the CRC cannot see locally (they
// produce a still-well-formed event stream) may only surface at the
// footer — but then the position is the footer's, never a silent pass.
func TestReaderFlippedByte(t *testing.T) {
	_, _, data := streamFixture(t, 48)
	headerLen := len(Magic) + 1 + 1 + 1 + 1 + 1 + 1 // magic ver flags nodes model proto seed (small varints)
	for pos := headerLen; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x41
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue // header field flips may fail at NewReader; fine
		}
		for {
			_, err = r.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Fatalf("flip at %d: corrupted trace decoded cleanly", pos)
		}
		var pe *PosError
		if errors.As(err, &pe) {
			if pe.Offset <= 0 || pe.Offset > int64(len(mut)) {
				t.Fatalf("flip at %d: offset %d out of range", pos, pe.Offset)
			}
		} else if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: error %v is neither positioned nor a checksum failure", pos, err)
		}
	}
}

// TestReaderChecksumPosition pins the footer-mismatch shape: a flip the
// event grammar tolerates is caught by the running CRC at the footer,
// positioned at the final event count and the footer offset.
func TestReaderChecksumPosition(t *testing.T) {
	_, events, data := streamFixture(t, 32)
	// Flip a value byte mid-stream until we find one that still decodes
	// as well-formed events (so only the footer CRC can catch it).
	for pos := len(data) / 3; pos < len(data)-4; pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x01
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		for {
			_, err = r.Next()
			if err != nil {
				break
			}
		}
		var pe *PosError
		if errors.As(err, &pe) && errors.Is(err, ErrChecksum) && r.Count() == uint64(len(events)) {
			if pe.Record != uint64(len(events)) {
				t.Fatalf("checksum failure positioned at event %d, want %d", pe.Record, len(events))
			}
			if pe.Offset != int64(len(mut)-2) {
				t.Fatalf("checksum failure at offset %d, want footer offset %d", pe.Offset, len(mut)-2)
			}
			return // found and verified the footer-only shape
		}
	}
	t.Skip("no flip reached the footer undetected for this fixture")
}

// TestReaderFromPipe decodes from a live pipe — no Seek, no Len — to
// pin the io.Reader contract (short reads included).
func TestReaderFromPipe(t *testing.T) {
	meta, events, _ := streamFixture(t, 300)
	pr, pw := io.Pipe()
	go func() {
		w, err := NewWriter(pw, meta)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for _, ev := range events {
			if err := w.Write(ev); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.CloseWithError(w.Close())
	}()
	r, err := NewReader(onebyte{pr})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev != events[n] {
			t.Fatalf("event %d mismatch", n)
		}
		n++
	}
	if n != len(events) {
		t.Fatalf("decoded %d, want %d", n, len(events))
	}
}

// onebyte degrades a reader to 1-byte reads: the worst-case short-read
// source.
type onebyte struct{ r io.Reader }

func (o onebyte) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}
