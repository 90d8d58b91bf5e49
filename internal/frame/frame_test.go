package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"dvmc/internal/frame"
	"dvmc/internal/hash"
	"dvmc/internal/oracle"
	"dvmc/internal/oracle/stream"
	"dvmc/internal/span"
	"dvmc/internal/trace"
)

// seal appends the footer a Writer would: sentinel, record count, CRC-16
// over everything before the CRC. The hostile files below are built by
// hand so their checksums are valid and only the decoders' own field
// checks stand between them and the oracles.
func seal(body []byte, records uint64) []byte {
	out := append(append([]byte(nil), body...), 0x00)
	out = binary.AppendUvarint(out, records)
	crc := hash.Sum(out)
	return append(out, byte(crc), byte(crc>>8))
}

// header renders a header of magic's current version with no flags,
// model TSO (2), protocol 0 and seed 7.
func header(magic string, nodes uint64) []byte {
	version := byte(trace.Version)
	if magic == span.Magic {
		version = span.Version
	}
	b := append([]byte(magic), version, 0)
	b = binary.AppendUvarint(b, nodes)
	return append(b, 2, 0, 7)
}

// storeCommit renders one trace record: a store commit with the given
// node and model bytes, seq 1, addr 8, val 1, time delta 0.
func storeCommit(node, model byte) []byte {
	const tag = 1 | 2<<3 // EvCommit | Store<<3
	return []byte{tag, node, model, 1, 8, 1, 0}
}

// posErr fails the test unless err is a *frame.PosError, and returns it.
func posErr(t *testing.T, what string, err error) *frame.PosError {
	t.Helper()
	var pe *frame.PosError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: error %v (%T) is not a *frame.PosError", what, err, err)
	}
	if !strings.Contains(err.Error(), "offset ") {
		t.Fatalf("%s: message %q names no offset", what, err)
	}
	return pe
}

// within fails the test if f has not returned after a second: the
// failures these files used to cause were a hang and an out-of-memory
// kill, neither of which a plain call survives to report.
func within(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatalf("%s: no answer after 1 s", what)
		return nil
	}
}

// TestHostileFiles hands every decoder and both oracles CRC-valid files
// whose fields lie: a node count past one byte, one past memory, events
// whose model has no ordering table, and an event for a node the header
// does not declare. Each must come back as a positioned error.
func TestHostileFiles(t *testing.T) {
	events := func(recs ...[]byte) []byte {
		body := header(trace.Magic, 4)
		for _, r := range recs {
			body = append(body, r...)
		}
		return seal(body, uint64(len(recs)))
	}
	cases := []struct {
		name   string
		data   []byte
		size   int // 0: not pinned
		record uint64
		offset int64
		want   string
	}{
		{"300 nodes", seal(header(trace.Magic, 300), 0), 17, 0, 8, "node count 300"},
		{"2^40 nodes", seal(header(trace.Magic, 1<<40), 0), 21, 0, 8, "node count 1099511627776"},
		{"model 9", events(storeCommit(0, 2), storeCommit(1, 9), storeCommit(2, 9), storeCommit(3, 9)), 44, 1, 19, "model byte 9"},
		{"model 0", events(storeCommit(0, 0)), 0, 0, 12, "model byte 0"},
		{"node 4 of 4", events(storeCommit(3, 2), storeCommit(4, 2)), 0, 1, 19, "node 4"},
	}
	for _, tc := range cases {
		if tc.size != 0 && len(tc.data) != tc.size {
			t.Fatalf("%s: built %d bytes, want %d", tc.name, len(tc.data), tc.size)
		}
		decoders := map[string]func() error{
			"trace.Decode":      func() error { _, _, err := trace.Decode(tc.data); return err },
			"oracle.CheckBytes": func() error { _, err := oracle.CheckBytes(tc.data); return err },
			"stream.CheckBytes": func() error { _, err := stream.CheckBytes(tc.data, stream.Options{}); return err },
		}
		for name, dec := range decoders {
			what := tc.name + " via " + name
			pe := posErr(t, what, within(t, what, dec))
			if pe.Record != tc.record || pe.Offset != tc.offset || !strings.Contains(pe.Err.Error(), tc.want) {
				t.Errorf("%s: %v; want record %d, offset %d, cause naming %q", what, pe, tc.record, tc.offset, tc.want)
			}
		}
	}
	// The header is frame's, so a span dump refuses the same node counts.
	for _, nodes := range []uint64{300, 1 << 40} {
		what := "span.Decode of a header with a hostile node count"
		data := seal(header(span.Magic, nodes), 0)
		pe := posErr(t, what, within(t, what, func() error { _, _, err := span.Decode(data); return err }))
		if pe.Offset != 8 {
			t.Errorf("%s: %v; want offset 8", what, pe)
		}
	}
}

func goldenTrace(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "golden.trc"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// spanDump encodes a small dump holding every span shape: events, no
// events, a node-less span, a backfilled (negative-delta) event.
func spanDump(t testing.TB) []byte {
	t.Helper()
	data, err := span.Encode(span.Meta{Nodes: 4, Model: 2, Protocol: 1, Seed: 42}, []span.Span{
		{ID: 1, Family: span.FamilyTxn, Kind: span.TxnWrite, Node: 2, Addr: 0x40, Start: 10, End: 55, Outcome: span.OutcomeDone,
			Events: []span.Event{{Label: span.LabelGetM, Time: 12, A: 2, B: 0}, {Label: span.LabelData, Time: 50, A: 0, B: 2}}},
		{ID: 2, Family: span.FamilyTxn, Kind: span.TxnRead, Node: 1, Addr: 0x80, Start: 10, End: 9000, Outcome: span.OutcomeAborted, Dropped: 3,
			Events: []span.Event{{Label: span.LabelGetS, Time: 10}, {Label: span.LabelInv, Time: 8, A: 1 << 40}}},
		{ID: 7, Family: span.FamilyTxn, Kind: span.TxnWrite, Node: -1, Start: 1024, End: 2048, Outcome: span.OutcomeUpgraded},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTruncationSweep cuts a trace and a span dump at every offset: each
// prefix is a torn tail, reported where it tore.
func TestTruncationSweep(t *testing.T) {
	sweep := func(name string, data []byte, decode func([]byte) error) {
		if err := decode(data); err != nil {
			t.Fatalf("%s: the whole file does not decode: %v", name, err)
		}
		for cut := 0; cut < len(data); cut++ {
			err := decode(data[:cut])
			if cut < 6 {
				if !errors.Is(err, frame.ErrBadMagic) {
					t.Fatalf("%s cut at %d: %v, want ErrBadMagic", name, cut, err)
				}
				continue
			}
			pe := posErr(t, name, err)
			if !errors.Is(err, io.ErrUnexpectedEOF) || pe.Offset != int64(cut) {
				t.Fatalf("%s cut at %d: %v, want unexpected EOF at the cut", name, cut, err)
			}
		}
	}
	sweep("golden.trc", goldenTrace(t), func(b []byte) error { _, _, err := trace.Decode(b); return err })
	sweep("span dump", spanDump(t), func(b []byte) error { _, _, err := span.Decode(b); return err })
}

// readTrace decodes a whole trace from src, as trace.Decode does from a
// slice.
func readTrace(src io.Reader) ([]trace.Event, error) {
	r, err := trace.NewReader(src)
	if err != nil {
		return nil, err
	}
	var events []trace.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}
}

// TestOneSpelling pins the rules that make a decoded stream re-encode to
// the bytes it came from: shortest-form varints, no unknown flags or
// version, nothing after the footer. Each stream is read twice: whole, so
// a varint with ten bytes buffered behind it is decoded in place, and one
// byte per Read, so every varint goes through the refilling byte loop.
// Both must fail at the same offset with the same cause.
func TestOneSpelling(t *testing.T) {
	good := seal(header(trace.Magic, 4), 0)
	if _, _, err := trace.Decode(good); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	long := append([]byte(trace.Magic), trace.Version, 0, 0x84, 0x00, 2, 0, 7) // nodes 4 spelt in two bytes
	huge := append([]byte(trace.Magic), trace.Version, 0, 4, 2, 0)
	huge = append(huge, bytes.Repeat([]byte{0xff}, 9)...) // seed: 9 groups then a 10th that overflows
	huge = append(huge, 0x02)
	flags := append([]byte(nil), header(trace.Magic, 4)...)
	flags[7] = 0x82
	version := append([]byte(nil), header(trace.Magic, 4)...)
	version[6] = 1 // the format before annotation records
	// The same two spellings as a record's seq field (offset 15), with a
	// whole record and the footer — more than ten bytes — behind them.
	inRecord := func(seq ...byte) []byte {
		rec := append([]byte{storeCommit(0, 2)[0], 0, 2}, seq...)
		rec = append(rec, 8, 1, 0)
		return seal(append(append(header(trace.Magic, 4), rec...), storeCommit(1, 2)...), 2)
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		offset int64
		want   string
	}{
		{"padded varint", seal(long, 0), 10, "shortest form"},
		{"overflowing varint", seal(huge, 0), 21, "overflows 64 bits"},
		{"padded varint in a record", inRecord(0x81, 0x80, 0x00), 18, "shortest form"},
		{"overflowing varint in a record", inRecord(append(bytes.Repeat([]byte{0xff}, 9), 0x02)...), 25, "overflows 64 bits"},
		{"unterminated varint in a record", inRecord(bytes.Repeat([]byte{0x80}, 10)...), 25, "overflows 64 bits"},
		{"unknown flag", seal(flags, 0), 7, "unknown header flags 0x82"},
		{"retired version", seal(version, 0), 6, "unsupported version 1"},
		{"trailing byte", append(append([]byte(nil), good...), 0), int64(len(good)), "trailing bytes"},
		{"wrong count", seal(header(trace.Magic, 4), 1), 14, "footer count 1"},
	} {
		_, _, err := trace.Decode(tc.data)
		pe := posErr(t, tc.name, err)
		if pe.Offset != tc.offset || !strings.Contains(pe.Err.Error(), tc.want) {
			t.Errorf("%s: %v; want offset %d, cause naming %q", tc.name, pe, tc.offset, tc.want)
		}
		_, slow := readTrace(iotest.OneByteReader(bytes.NewReader(tc.data)))
		if posErr(t, tc.name+" byte by byte", slow); slow.Error() != err.Error() {
			t.Errorf("%s: byte by byte %q, whole %q", tc.name, slow, err)
		}
	}
	// A span dump admits no flag at all, and spans out of (Start, ID) order
	// would not survive Encode's sort.
	spFlags := append([]byte(nil), header(span.Magic, 4)...)
	spFlags[7] = 1
	if _, _, err := span.Decode(seal(spFlags, 0)); posErr(t, "span flag", err).Offset != 7 {
		t.Errorf("span flag: %v, want offset 7", err)
	}
	rec := func(idDelta byte) []byte { // family txn, kind 0, node 0, addr 0, id delta, start +0, dur 0, outcome, dropped 0, 0 events
		return []byte{1, 0, 0, 0, idDelta, 0, 0, 1, 0, 0}
	}
	body := append(header(span.Magic, 4), rec(2<<1)...)
	body = append(body, rec(1<<1|1)...) // zigzag -1: same start, lower id
	_, _, err := span.Decode(seal(body, 2))
	if pe := posErr(t, "span order", err); pe.Record != 1 || !strings.Contains(pe.Err.Error(), "canonical order") {
		t.Errorf("span order: %v, want record 1 refused as out of canonical order", err)
	}
}

// TestVarintAcrossRefill puts the longest varint across the reader's
// 64 KiB refill at each of its nine cut points: the bytes before the cut
// are too few to decode in place, so the varint is read byte by byte
// through the refill and must come out whole.
func TestVarintAcrossRefill(t *testing.T) {
	const refill = 64 << 10
	const v = 1<<63 | 0x0123456789abcdef
	for cut := 1; cut < binary.MaxVarintLen64; cut++ {
		var buf bytes.Buffer
		w, err := frame.NewWriter(&buf, "DVMCXX", 1, frame.Header{Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Tag-only records up to the one whose varint starts cut bytes
		// before the refill.
		fill := refill - cut - 1 - buf.Len()
		for i := 0; i < fill; i++ {
			if err := w.Record(append(w.Buf(), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Record(binary.AppendUvarint(append(w.Buf(), 2), v)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, _, err := frame.NewReader(bytes.NewReader(buf.Bytes()), "DVMCXX", 1)
		if err != nil {
			t.Fatal(err)
		}
		for {
			tag, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if tag == 2 {
				if at := r.Offset(); at != refill-int64(cut) {
					t.Fatalf("cut %d: varint starts at %d, want %d", cut, at, refill-cut)
				}
				if got := r.Uvarint(); got != v {
					t.Fatalf("cut %d: varint across the refill = %#x, want %#x", cut, got, uint64(v))
				}
			}
			if err := r.End(); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
		}
		if r.Count() != uint64(fill)+1 {
			t.Fatalf("cut %d: %d records, want %d", cut, r.Count(), fill+1)
		}
	}
}

// TestWriterReaderRoundTrip drives the container without a codec, through
// a source that hands out one byte at a time.
func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := frame.Header{Nodes: 255, Model: 3, Protocol: 1, Seed: 1<<64 - 1}
	w, err := frame.NewWriter(&buf, "DVMCXX", 9, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		b := append(w.Buf(), byte(i%255+1))
		b = binary.AppendUvarint(b, uint64(i)<<uint(i%57))
		b = frame.AppendZigzag(b, int64(150-i)*int64(i))
		if err := w.Record(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Record([]byte{1}); err == nil {
		t.Error("Record after Close succeeded")
	}
	if err := w.Close(); err != nil || buf.Len() == 0 {
		t.Errorf("second Close = %v", err)
	}
	if f := buf.Bytes()[7]; f != 0 {
		t.Errorf("header flags byte = %#02x, want 0", f)
	}
	if _, err := frame.NewWriter(io.Discard, "DVMCXX", 9, frame.Header{Nodes: 256}); err == nil {
		t.Error("NewWriter took 256 nodes")
	}

	r, got, err := frame.NewReader(iotest.OneByteReader(bytes.NewReader(buf.Bytes())), "DVMCXX", 9)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	for i := 1; ; i++ {
		tag, err := r.Next()
		if err == io.EOF {
			if i != 301 || r.Count() != 300 || r.Offset() != int64(buf.Len()) {
				t.Fatalf("EOF after %d records, Count %d, Offset %d of %d", i-1, r.Count(), r.Offset(), buf.Len())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		u, z := r.Uvarint(), r.Zigzag()
		if err := r.End(); err != nil {
			t.Fatal(err)
		}
		if tag != byte(i%255+1) || u != uint64(i)<<uint(i%57) || z != int64(150-i)*int64(i) {
			t.Fatalf("record %d = (%d, %d, %d)", i, tag, u, z)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v", err)
	}
}

// FuzzSealedStream is the one fuzz target of the sealed-stream container:
// the same bytes go to both codecs built on it. Each either decodes — to
// no more elements than the input has bytes, and to a value that encodes
// back to exactly those bytes — or fails with ErrBadMagic or a positioned
// error. The trace is decoded a second time one byte per Read, which
// takes every varint through the byte loop instead of the in-place
// decode: the events, or the error, must be the same. A panic, a hang or
// an allocation sized by a decoded count is what the fuzzer is looking
// for.
func FuzzSealedStream(f *testing.F) {
	f.Add(goldenTrace(f))
	f.Add(spanDump(f))
	corpus, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "corpus", "*.trc"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no corpus traces to seed from (%v)", err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		closed := func(what string, err error) {
			var pe *frame.PosError
			if !errors.Is(err, frame.ErrBadMagic) && !errors.As(err, &pe) {
				t.Fatalf("%s: %v (%T) is neither ErrBadMagic nor positioned", what, err, err)
			}
			if pe != nil && (pe.Offset < 0 || pe.Offset > int64(len(data))) {
				t.Fatalf("%s: %v points outside the %d-byte input", what, err, len(data))
			}
		}
		meta, events, err := trace.Decode(data)
		slow, slowErr := readTrace(iotest.OneByteReader(bytes.NewReader(data)))
		if fmt.Sprint(err) != fmt.Sprint(slowErr) || err == nil && !reflect.DeepEqual(events, slow) {
			t.Fatalf("trace: whole %d events (err %v), byte by byte %d events (err %v)", len(events), err, len(slow), slowErr)
		}
		if err != nil {
			closed("trace.Decode", err)
		} else {
			if len(events) > len(data) {
				t.Fatalf("trace.Decode: %d events out of %d bytes", len(events), len(data))
			}
			again, err := trace.Encode(meta, events)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("trace: a decoded stream re-encodes differently (err %v)", err)
			}
		}
		if meta, spans, err := span.Decode(data); err != nil {
			closed("span.Decode", err)
		} else {
			n := len(spans)
			for i := range spans {
				n += len(spans[i].Events)
			}
			if n > len(data) {
				t.Fatalf("span.Decode: %d spans and events out of %d bytes", n, len(data))
			}
			again, err := span.Encode(meta, spans)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("span: a decoded dump re-encodes differently (err %v)", err)
			}
		}
	})
}
