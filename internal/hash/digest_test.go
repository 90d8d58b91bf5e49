package hash

import "testing"

// TestDigestMatchesSum pins the streaming digest to the one-shot Sum for a
// variety of split points, so the trace codec's incremental checksum is
// guaranteed to equal Sum over the whole stream. Splits at 3, 7 and 9 cut
// an 8-byte step of the kernel. The rest arrives either in one Write (its
// 8-byte steps now start off the original alignment) or a byte at a time.
func TestDigestMatchesSum(t *testing.T) {
	data := make([]byte, 257)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	want := reference(data)
	if got := Sum(data); got != want {
		t.Fatalf("Sum = %#04x, want %#04x", got, want)
	}
	for _, split := range []int{0, 1, 3, 7, 9, 16, 128, 255, len(data)} {
		whole, bytewise := NewDigest(), NewDigest()
		whole.Write(data[:split])
		whole.Write(data[split:])
		bytewise.Write(data[:split])
		for _, b := range data[split:] {
			bytewise.Write([]byte{b})
		}
		if got := whole.Sum16(); got != want {
			t.Errorf("split %d, rest in one write: digest=%#04x want %#04x", split, got, want)
		}
		if got := bytewise.Sum16(); got != want {
			t.Errorf("split %d, rest byte by byte: digest=%#04x want %#04x", split, got, want)
		}
	}
}

func TestDigestEmptyAndReset(t *testing.T) {
	d := NewDigest()
	if d.Sum16() != Sum(nil) {
		t.Fatalf("empty digest %#04x != Sum(nil) %#04x", d.Sum16(), Sum(nil))
	}
	d.Write([]byte("garbage"))
	d.Reset()
	if d.Sum16() != Sum(nil) {
		t.Fatalf("reset digest %#04x != Sum(nil) %#04x", d.Sum16(), Sum(nil))
	}
}
