package hash

import "testing"

// TestDigestMatchesSum pins the streaming digest to the one-shot Sum for a
// variety of split points, so the trace codec's incremental checksum is
// guaranteed to equal Sum over the whole stream.
func TestDigestMatchesSum(t *testing.T) {
	data := make([]byte, 257)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	want := Sum(data)
	for _, split := range []int{0, 1, 16, 128, 255, len(data)} {
		d := NewDigest()
		d.Write(data[:split])
		for _, b := range data[split:] {
			d.Write([]byte{b})
		}
		if got := d.Sum16(); got != want {
			t.Errorf("split %d: digest=%#04x want %#04x", split, got, want)
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
