package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"dvmc/internal/consistency"
	"dvmc/internal/frame"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// Binary trace format (version 1): a sealed stream (internal/frame —
// header, records, footer with record count and CRC-16) whose records
// are events, little-endian varints throughout:
//
//	event:   tag u8 | fields (see below) | time-delta zigzag-varint
//
// The tag byte packs kind (bits 0..1, values 1..3 so a tag is never 0x00),
// class (bits 2..3), IsRMW (bit 4), and Fwd (bit 5). Fields by shape:
//
//	recover:     node u8
//	membar:      node u8 | model u8 | mask u8 | seq uvarint
//	load/store:  node u8 | model u8 | seq uvarint | addr uvarint |
//	             val uvarint | val2 uvarint (RMW performs only)
//
// Time is delta-encoded against the previous event's time with zigzag
// signed varints: callback timestamps across CPUs can be up to one cycle
// stale, so deltas may be slightly negative. Header flags bit 0 marks a
// truncated flight-recorder window.

// Magic is the 6-byte file signature of a trace.
const Magic = "DVMCTR"

// Version is the current format version. Bump on any incompatible change
// and update the golden fixture deliberately.
const Version = 1

const (
	tagKindBits   = 0x03
	tagClassShift = 2
	tagClassBits  = 0x03
	tagRMWBit     = 1 << 4
	tagFwdBit     = 1 << 5
	tagUsedBits   = tagKindBits | tagClassBits<<tagClassShift | tagRMWBit | tagFwdBit

	// header flags byte
	flagTruncated = 1 << 0
)

// The container's failures, under the names trace's callers match on.
var (
	ErrBadMagic = frame.ErrBadMagic // the input does not start with Magic
	ErrChecksum = frame.ErrChecksum // the footer CRC does not match the stream
)

// PosError locates a decode failure by event index and byte offset.
type PosError = frame.PosError

// Writer encodes events to an io.Writer. Create with NewWriter (which
// emits the header), append with Write, and call Close to emit the footer.
type Writer struct {
	f        *frame.Writer
	lastTime int64
}

// NewWriter writes the header for meta and returns a Writer. meta.Version
// is forced to Version.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	h := frame.Header{Nodes: meta.Nodes, Model: byte(meta.Model), Protocol: meta.Protocol, Seed: meta.Seed}
	if meta.Truncated {
		h.Flags = flagTruncated
	}
	f, err := frame.NewWriter(w, Magic, Version, h)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Write appends one event.
func (w *Writer) Write(ev Event) error {
	if ev.Kind < EvCommit || ev.Kind > EvRecover {
		return fmt.Errorf("trace: invalid event kind %d", ev.Kind)
	}
	tag := byte(ev.Kind) | byte(ev.Class)<<tagClassShift
	if ev.IsRMW {
		tag |= tagRMWBit
	}
	if ev.Fwd {
		tag |= tagFwdBit
	}
	// The frame's scratch buffer keeps its growth between records, so these
	// appends amortize to zero.
	b := append(w.f.Buf(), tag, ev.Node)
	switch {
	case ev.Kind == EvRecover:
		// node only
	case ev.Class == consistency.Membar:
		b = append(b, byte(ev.Model), byte(ev.Mask))
		b = binary.AppendUvarint(b, ev.Seq)
	default:
		b = append(b, byte(ev.Model))
		b = binary.AppendUvarint(b, ev.Seq)
		b = binary.AppendUvarint(b, uint64(ev.Addr))
		b = binary.AppendUvarint(b, uint64(ev.Val))
		if ev.IsRMW && ev.Kind == EvPerform {
			b = binary.AppendUvarint(b, uint64(ev.Val2))
		}
	}
	b = frame.AppendZigzag(b, int64(ev.Time)-w.lastTime)
	w.lastTime = int64(ev.Time)
	return w.f.Record(b)
}

// Close writes the footer (sentinel, count, CRC-16). Idempotent.
func (w *Writer) Close() error { return w.f.Close() }

// Reader decodes a trace incrementally from an io.Reader — a file, a
// pipe from a concurrently-running `dvmc-trace record`, or an in-memory
// slice via bytes.NewReader — without materializing the stream. Create
// with NewReader (which reads and validates the header) and iterate with
// Next until io.EOF, which vouches for the footer count and CRC. Decode
// failures carry their position as a *PosError.
type Reader struct {
	f        *frame.Reader
	meta     Meta
	lastTime int64
}

// NewReader reads and parses the trace header from src and returns a
// Reader positioned at the first event.
func NewReader(src io.Reader) (*Reader, error) {
	f, h, err := frame.NewReader(src, Magic, Version, flagTruncated)
	if err != nil {
		return nil, err
	}
	return &Reader{f: f, meta: Meta{
		Version: Version, Nodes: h.Nodes, Model: consistency.Model(h.Model),
		Protocol: h.Protocol, Seed: h.Seed, Truncated: h.Flags&flagTruncated != 0,
	}}, nil
}

// Meta returns the decoded header.
func (r *Reader) Meta() Meta { return r.meta }

// Count returns the number of events decoded so far.
func (r *Reader) Count() uint64 { return r.f.Count() }

// Offset returns the absolute byte offset of the next unread byte.
func (r *Reader) Offset() int64 { return r.f.Offset() }

// Next returns the next event, or io.EOF after the footer has been reached
// and verified. Any other error is positioned (*PosError). An event the
// oracles could not take — a node the header does not declare, a model
// with no ordering table — is a decode failure, not an event.
func (r *Reader) Next() (Event, error) {
	f := r.f
	tag, err := f.Next()
	if err != nil {
		return Event{}, err
	}
	ev := Event{
		Kind:  Kind(tag & tagKindBits),
		Class: consistency.OpClass(tag >> tagClassShift & tagClassBits),
		IsRMW: tag&tagRMWBit != 0,
		Fwd:   tag&tagFwdBit != 0,
		Node:  f.Byte(),
	}
	switch {
	case tag&^tagUsedBits != 0 || ev.Kind == 0 || ev.Class == 0 && ev.Kind != EvRecover:
		f.Failf("invalid tag %#02x (corrupt byte or mid-stream damage)", tag)
	case ev.Kind == EvRecover:
		// node only
	case ev.Class == consistency.Membar:
		ev.Model, ev.Mask = consistency.Model(f.Byte()), consistency.MembarMask(f.Byte())
		ev.Seq = f.Uvarint()
	default: // load or store
		ev.Model = consistency.Model(f.Byte())
		ev.Seq = f.Uvarint()
		ev.Addr, ev.Val = mem.Addr(f.Uvarint()), mem.Word(f.Uvarint())
		if ev.IsRMW && ev.Kind == EvPerform {
			ev.Val2 = mem.Word(f.Uvarint())
		}
	}
	r.lastTime += f.Zigzag()
	ev.Time = sim.Cycle(r.lastTime)
	if int(ev.Node) >= r.meta.Nodes {
		f.Failf("event for node %d but the header declares %d nodes", ev.Node, r.meta.Nodes)
	}
	if ev.Kind != EvRecover && (ev.Model < consistency.SC || ev.Model > consistency.RMO) {
		f.Failf("model byte %d is none of SC, TSO, PSO, RMO", uint8(ev.Model))
	}
	if err := f.End(); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// Encode serialises meta and events into a complete trace byte stream.
func Encode(meta Meta, events []Event) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a complete trace byte stream held in memory.
func Decode(data []byte) (Meta, []Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Meta{}, nil, err
	}
	var events []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return r.Meta(), events, nil
		}
		if err != nil {
			return r.Meta(), events, err
		}
		events = append(events, ev)
	}
}
