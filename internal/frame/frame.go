// Package frame is the sealed-stream container under the trace and span
// codecs, little-endian varints throughout:
//
//	header:  magic [6] | version u8 | flags u8 | nodes uvarint |
//	         model u8 | protocol u8 | seed uvarint
//	record:  tag u8 (never 0x00) | payload (the codec's business)
//	footer:  0x00 sentinel | count uvarint | crc16 u16le
//
// The CRC-16 covers every byte before it. A codec keeps what its records
// hold (tag packing, field order, delta bases) and the validation of those
// fields; everything else is here. DESIGN.md "Containers" has the split,
// and why the fabric's checkpoint journal is a different container.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dvmc/internal/hash"
)

// MaxNodes bounds the header's node count: node ids are one byte.
const MaxNodes = 255

// ErrBadMagic is returned when the input does not start with the magic.
var ErrBadMagic = errors.New("bad magic (not a DVMC stream of this kind)")

// ErrChecksum is returned when the footer CRC does not match the stream.
var ErrChecksum = errors.New("checksum mismatch (corrupt stream)")

// Header is the run identity every sealed stream starts with. Flags,
// Model and Protocol are opaque bytes here; the codec gives them meaning.
type Header struct {
	Flags    uint8
	Nodes    int
	Model    uint8
	Protocol uint8
	Seed     uint64
}

// PosError locates a decode failure: the index of the record being
// decoded when it struck (the number of complete records before it; 0 in
// the header) and a byte offset — where input ran out, the start of a
// record whose field a codec rejects, or the two CRC bytes. It wraps the
// cause: a torn tail (io.ErrUnexpectedEOF) and a flipped byte
// (ErrChecksum) are different failures, and both say how far a check got.
type PosError struct {
	Record uint64
	Offset int64
	Err    error
}

// Error implements error.
func (e *PosError) Error() string {
	return fmt.Sprintf("record %d, offset %d: %v", e.Record, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PosError) Unwrap() error { return e.Err }

// AppendZigzag appends v as a zigzag-coded uvarint.
func AppendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// Writer emits one sealed stream. NewWriter writes the header; the codec
// appends each record to Buf and hands it to Record; Close writes the
// footer.
type Writer struct {
	w       io.Writer
	d       *hash.Digest
	scratch []byte
	count   uint64
	closed  bool
	err     error
}

// NewWriter writes magic, version and h to w.
func NewWriter(w io.Writer, magic string, version uint8, h Header) (*Writer, error) {
	if h.Nodes < 0 || h.Nodes > MaxNodes {
		return nil, fmt.Errorf("frame: node count %d out of range 0..%d", h.Nodes, MaxNodes)
	}
	fw := &Writer{w: w, d: hash.NewDigest(), scratch: make([]byte, 0, 64)}
	b := append(fw.scratch, magic...)
	b = append(b, version, h.Flags)
	b = binary.AppendUvarint(b, uint64(h.Nodes))
	b = append(b, h.Model, h.Protocol)
	b = binary.AppendUvarint(b, h.Seed)
	if err := fw.write(b); err != nil {
		return nil, err
	}
	return fw, nil
}

// write sends b to the underlying writer, teeing it into the digest.
func (w *Writer) write(b []byte) error {
	if w.err == nil {
		w.d.Write(b)
		_, w.err = w.w.Write(b)
	}
	return w.err
}

// Buf returns the empty scratch buffer to append a record to; Record
// keeps its growth, so steady-state encoding does not allocate.
func (w *Writer) Buf() []byte { return w.scratch[:0] }

// Record writes one record. b[0] is its tag and must not be 0x00, the
// footer sentinel.
func (w *Writer) Record(b []byte) error {
	if w.closed {
		return errors.New("frame: Record after Close")
	}
	w.scratch = b[:0]
	w.count++
	return w.write(b)
}

// Close writes the footer (sentinel, count, CRC-16). Idempotent.
func (w *Writer) Close() error {
	if !w.closed {
		w.closed = true
		w.write(binary.AppendUvarint(append(w.scratch[:0], 0x00), w.count))
		crc := w.d.Sum16() // taken before the CRC bytes pass through write
		w.write([]byte{byte(crc), byte(crc >> 8)})
	}
	return w.err
}

// Reader decodes one sealed stream incrementally from any io.Reader,
// without holding it. NewReader reads the header; Next begins each record;
// Byte, Uvarint and Zigzag read its fields; End ends it. The first failure
// sticks and End (or Next) reports it, so a codec reads a whole record and
// checks once — but a loop bounded by a decoded count must test Failed.
type Reader struct {
	src        io.Reader
	d          *hash.Digest
	buf        []byte
	start, end int   // unread window within buf
	sum        int   // buf[sum:start] is read but not yet digested
	base       int64 // stream offset of buf[0]
	srcErr     error // sticky error from src (io.EOF included)
	recOff     int64 // offset of the current record's tag
	count      uint64
	err        error // first failure, positioned
	sealed     bool  // footer verified
}

// NewReader reads the header of a stream that must start with magic,
// carry the given version and set no flag outside flags. A source too
// short to hold the magic, or holding another, is ErrBadMagic; every
// other failure is a *PosError.
func NewReader(src io.Reader, magic string, version, flags uint8) (*Reader, Header, error) {
	// 64 KiB: syscalls vanish on pipes; nothing against a bounded-memory check.
	r := &Reader{src: src, d: hash.NewDigest(), buf: make([]byte, 64<<10)}
	for i := 0; i < len(magic); i++ {
		if b := r.Byte(); r.err != nil || b != magic[i] {
			return nil, Header{}, fmt.Errorf("%w: want %q", ErrBadMagic, magic)
		}
	}
	if v := r.Byte(); r.err == nil && v != version {
		r.failAt(r.Offset()-1, fmt.Errorf("unsupported version %d (want %d)", v, version))
	}
	var h Header
	if h.Flags = r.Byte(); h.Flags&^flags != 0 {
		r.failAt(r.Offset()-1, fmt.Errorf("unknown header flags %#02x", h.Flags))
	}
	nodesOff := r.Offset()
	nodes := r.Uvarint()
	if nodes > MaxNodes {
		r.failAt(nodesOff, fmt.Errorf("node count %d out of range 0..%d", nodes, MaxNodes))
	}
	h.Nodes = int(nodes)
	h.Model = r.Byte()
	h.Protocol = r.Byte()
	h.Seed = r.Uvarint()
	if r.err != nil {
		return nil, Header{}, r.err
	}
	return r, h, nil
}

// Count returns the number of complete records decoded so far.
func (r *Reader) Count() uint64 { return r.count }

// Offset returns the stream offset of the next unread byte.
func (r *Reader) Offset() int64 { return r.base + int64(r.start) }

// Failed reports whether a failure has stuck.
func (r *Reader) Failed() bool { return r.err != nil }

// Failf rejects the current record: the cause sticks at the record's
// first byte unless an earlier failure already stuck.
func (r *Reader) Failf(format string, args ...any) {
	r.failAt(r.recOff, fmt.Errorf(format, args...))
}

// fail sticks err at the cursor.
func (r *Reader) fail(err error) error { return r.failAt(r.Offset(), err) }

// failAt sticks err at off unless an earlier failure already stuck, and
// returns the failure that holds. A bare io.EOF is a source that ended
// where more bytes were required: a torn tail, io.ErrUnexpectedEOF.
func (r *Reader) failAt(off int64, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if r.err == nil {
		r.err = &PosError{Record: r.count, Offset: off, Err: err}
	}
	return r.err
}

// fill digests what has been read and refills the empty buffer from
// src; false once src is exhausted, and srcErr says how.
func (r *Reader) fill() bool {
	r.d.Write(r.buf[r.sum:r.start])
	r.base += int64(r.start)
	r.start, r.end, r.sum = 0, 0, 0
	for r.end == 0 && r.srcErr == nil {
		r.end, r.srcErr = r.src.Read(r.buf)
	}
	return r.end > 0
}

// more is Byte's slow path: refill, or stick the reason there is no more.
func (r *Reader) more() bool {
	if r.err == nil && !r.fill() {
		r.fail(r.srcErr)
	}
	return r.err == nil
}

// Byte reads one byte, or 0 where the input has run out.
func (r *Reader) Byte() (b byte) {
	if r.start < r.end || r.more() {
		b = r.buf[r.start]
		r.start++
	}
	return b
}

// The two ways a varint can fail to be the one spelling of its value.
var (
	errPadded   = errors.New("varint is not in its shortest form")
	errOverflow = errors.New("varint overflows 64 bits")
)

// uvarint decodes the varint at the front of p, which holds at most
// binary.MaxVarintLen64 bytes, and returns its value, the bytes it spans,
// and why it is not the one spelling of that value (nil when it is). A
// zero group after the first pads; a tenth byte above 1, or no
// terminator in ten bytes, overflows.
func uvarint(p []byte) (v uint64, n int, bad error) {
	for i, b := range p {
		if b < 0x80 {
			switch {
			case b == 0 && i > 0:
				return 0, i + 1, errPadded
			case i == binary.MaxVarintLen64-1 && b > 1:
				return 0, i + 1, errOverflow
			}
			return v | uint64(b)<<(7*i), i + 1, nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, len(p), errOverflow
}

// Uvarint reads one uvarint. Overflowing 64 bits or padding with a zero
// group is a failure, so a stream that decodes has exactly one spelling.
// A one-byte varint, and any varint while a longest one's worth of bytes
// is buffered, is decoded in place; only the last few bytes of a buffer
// go through Byte and its refill. Both paths consume the same bytes and
// fail at the same offset, just past the byte that broke the rule.
func (r *Reader) Uvarint() uint64 {
	if r.start < r.end && r.buf[r.start] < 0x80 {
		r.start++
		return uint64(r.buf[r.start-1])
	}
	var v uint64
	var bad error
	if r.end-r.start >= binary.MaxVarintLen64 {
		var n int
		v, n, bad = uvarint(r.buf[r.start : r.start+binary.MaxVarintLen64])
		r.start += n
	} else {
		var p [binary.MaxVarintLen64]byte
		n := 0
		for n < len(p) {
			p[n] = r.Byte() // 0 once the input has run out, which ends the varint
			n++
			if p[n-1] < 0x80 {
				break
			}
		}
		v, _, bad = uvarint(p[:n])
	}
	if bad != nil {
		r.fail(bad) // a no-op where Byte already failed
		return 0
	}
	return v
}

// Zigzag reads one zigzag-coded signed varint.
func (r *Reader) Zigzag() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Next begins the next record and returns its tag, or io.EOF once the
// footer has been read and verified. Any other error is a *PosError, and
// is what every later call returns too.
func (r *Reader) Next() (byte, error) {
	if r.sealed {
		return 0, io.EOF
	}
	r.recOff = r.Offset()
	if tag := r.Byte(); r.err != nil {
		return 0, r.err
	} else if tag != 0x00 {
		return tag, nil
	}
	return 0, r.footer()
}

// End ends the current record: the failure that stuck while it was
// read, or nil — and then the record counts.
func (r *Reader) End() error {
	if r.err != nil {
		return r.err
	}
	r.count++
	return nil
}

// footer checks count, CRC and that the source ends with the stream,
// returning io.EOF on success.
func (r *Reader) footer() error {
	if n := r.Uvarint(); r.err == nil && n != r.count {
		r.fail(fmt.Errorf("footer count %d != decoded records %d", n, r.count))
	}
	r.d.Write(r.buf[r.sum:r.start])
	r.sum = r.start
	want := r.d.Sum16()
	lo, hi := r.Byte(), r.Byte()
	if r.err != nil {
		return r.err
	}
	if got := hash.Signature(uint16(lo) | uint16(hi)<<8); got != want {
		// Damage no record's shape check could see; the position names the
		// footer, so the report still says how far the check got.
		return r.failAt(r.Offset()-2, ErrChecksum)
	}
	if r.start < r.end || r.fill() {
		return r.fail(errors.New("trailing bytes after the footer"))
	}
	if r.srcErr != io.EOF {
		return r.fail(r.srcErr)
	}
	r.sealed = true
	return io.EOF
}
