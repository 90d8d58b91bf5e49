package hash

// Digest is a streaming CRC-16 accumulator over the same CCITT polynomial
// as Sum. It lets the trace codec checksum an encoded stream incrementally
// without buffering the whole file: feed bytes with Write, read the
// signature so far with Sum16.
//
// The zero value is NOT ready to use; obtain one with NewDigest (the CRC
// register must start at 0xffff).
type Digest struct {
	crc uint16
}

// NewDigest returns a Digest initialised to the empty-stream state, such
// that d.Sum16() == Sum(nil) before any writes.
func NewDigest() *Digest {
	return &Digest{crc: 0xffff}
}

// Write absorbs p into the digest. It never fails; the error return exists
// to satisfy io.Writer so the codec can tee into it.
func (d *Digest) Write(p []byte) (int, error) {
	d.crc = update(d.crc, p)
	return len(p), nil
}

// Sum16 returns the signature of everything written so far. It does not
// reset the digest; more bytes may be written afterwards.
func (d *Digest) Sum16() Signature {
	return Signature(^d.crc)
}

// Reset returns the digest to the empty-stream state.
func (d *Digest) Reset() {
	d.crc = 0xffff
}
