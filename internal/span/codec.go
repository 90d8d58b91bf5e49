package span

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"dvmc/internal/frame"
	"dvmc/internal/sim"
)

// Binary span-dump format (version 1): a sealed stream (internal/frame —
// header, records, footer with record count and CRC-16) whose records
// are spans in canonical (Start, ID) order, little-endian varints
// throughout:
//
//	span:   family u8 (never 0x00) | kind u8 | node zigzag |
//	        addr uvarint | id-delta zigzag | start-delta uvarint |
//	        duration uvarint | outcome u8 | dropped uvarint |
//	        events uvarint | event...
//	event:  label u8 | time-delta zigzag | a uvarint | b uvarint
//
// ID and Start are deltas against the previous span; event times against
// the span start, then the previous event, and signed. The encoding is a pure function of (Meta, sorted span list):
// dumps are byte-comparable across runs, worker counts and farm shapes.

// Magic identifies a span dump file.
const Magic = "DVMCSP"

// Version is the current format version.
const Version = 1

// Meta is the run identity stamped into a dump's header, matching the
// fields trace.Meta carries.
type Meta struct {
	Nodes    int
	Model    uint8
	Protocol uint8
	Seed     uint64
}

// Encode renders a span dump. The input is re-sorted into canonical
// (Start, ID) order, so encoding is insensitive to caller ordering.
func Encode(meta Meta, spans []Span) ([]byte, error) {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sortSpans(sorted)

	var out bytes.Buffer
	out.Grow(32 + 24*len(sorted))
	w, err := frame.NewWriter(&out, Magic, Version,
		frame.Header{Nodes: meta.Nodes, Model: meta.Model, Protocol: meta.Protocol, Seed: meta.Seed})
	if err != nil {
		return nil, err
	}
	var prevStart sim.Cycle
	var prevID uint64
	for i := range sorted {
		s := &sorted[i]
		if s.Family == 0 {
			return nil, fmt.Errorf("span: encode: span %d has zero family", i)
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("span: encode: span %d ends (%d) before it starts (%d)", i, s.End, s.Start)
		}
		b := append(w.Buf(), byte(s.Family), s.Kind)
		b = frame.AppendZigzag(b, int64(s.Node))
		b = binary.AppendUvarint(b, s.Addr)
		b = frame.AppendZigzag(b, int64(s.ID)-int64(prevID))
		b = binary.AppendUvarint(b, uint64(s.Start-prevStart))
		b = binary.AppendUvarint(b, uint64(s.End-s.Start))
		b = append(b, byte(s.Outcome))
		b = binary.AppendUvarint(b, uint64(s.Dropped))
		b = binary.AppendUvarint(b, uint64(len(s.Events)))
		prevT := int64(s.Start)
		for _, e := range s.Events {
			b = append(b, byte(e.Label))
			b = frame.AppendZigzag(b, int64(e.Time)-prevT)
			prevT = int64(e.Time)
			b = binary.AppendUvarint(b, e.A)
			b = binary.AppendUvarint(b, e.B)
		}
		if err := w.Record(b); err != nil {
			return nil, err
		}
		prevStart, prevID = s.Start, s.ID
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Decode parses a span dump. It fails closed: a family, outcome or
// event label outside the sets this package defines is refused like a
// torn record. Failures carry their position as a *frame.PosError; a
// dump that decodes re-encodes to the same bytes.
func Decode(data []byte) (Meta, []Span, error) {
	f, h, err := frame.NewReader(bytes.NewReader(data), Magic, Version)
	if err != nil {
		return Meta{}, nil, err
	}
	var spans []Span
	var prev Span
	for {
		fam, err := f.Next()
		if err == io.EOF {
			return Meta{Nodes: h.Nodes, Model: h.Model, Protocol: h.Protocol, Seed: h.Seed}, spans, nil
		}
		if err != nil {
			return Meta{}, nil, err
		}
		s := Span{Family: Family(fam), Kind: f.Byte()}
		node := f.Zigzag()
		s.Node = int32(node)
		s.Addr = f.Uvarint()
		s.ID = uint64(int64(prev.ID) + f.Zigzag())
		s.Start = prev.Start + sim.Cycle(f.Uvarint())
		s.End = s.Start + sim.Cycle(f.Uvarint())
		s.Outcome = Outcome(f.Byte())
		dropped := f.Uvarint()
		s.Dropped = uint16(dropped)
		n := f.Uvarint()
		switch {
		case f.Failed():
		case s.Family != FamilyTxn:
			f.Failf("unknown span family %d", fam)
		case s.Outcome > OutcomeAborted:
			f.Failf("unknown span outcome %d", uint8(s.Outcome))
		case int64(s.Node) != node || uint64(s.Dropped) != dropped:
			f.Failf("node %d or dropped count %d out of range", node, dropped)
		case s.End < s.Start:
			f.Failf("span duration overflows the cycle counter")
		case len(spans) > 0 && !spanLess(&prev, &s):
			f.Failf("span (start %d, id %d) is not after (start %d, id %d): not in canonical order",
				s.Start, s.ID, prev.Start, prev.ID)
		}
		// The count reserves little up front: one the input cannot back
		// runs out of input long before it runs out of memory.
		s.Events = make([]Event, 0, min(n, 64))
		prevT := int64(s.Start)
		for ; n > 0 && !f.Failed(); n-- {
			e := Event{Label: Label(f.Byte())}
			if e.Label < LabelGetS || e.Label > LabelSnoopWB {
				f.Failf("span %d: unknown event label %d", s.ID, uint8(e.Label))
			}
			prevT += f.Zigzag()
			e.Time = sim.Cycle(prevT)
			e.A, e.B = f.Uvarint(), f.Uvarint()
			s.Events = append(s.Events, e)
		}
		if err := f.End(); err != nil {
			return Meta{}, nil, err
		}
		spans = append(spans, s)
		prev = s
	}
}
