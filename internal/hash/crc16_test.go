package hash

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestSumKnownVectors(t *testing.T) {
	// CRC-16/KERMIT-style vectors computed with the reversed CCITT
	// polynomial, init 0xffff, final XOR 0xffff (a.k.a. CRC-16/X-25).
	tests := []struct {
		name string
		in   string
		want Signature
	}{
		{"empty", "", 0x0000},
		{"check", "123456789", 0x906E},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum([]byte(tt.in)); got != tt.want {
				t.Errorf("Sum(%q) = %#04x, want %#04x", tt.in, got, tt.want)
			}
		})
	}
}

func TestSumDetectsSingleBitFlips(t *testing.T) {
	// The paper relies on CRC-16 never aliasing for blocks with fewer than
	// 16 erroneous bits. Exhaustively flip every bit of a 64-byte block.
	block := make([]byte, 64)
	for i := range block {
		block[i] = byte(i*37 + 11)
	}
	orig := Sum(block)
	for byteIdx := range block {
		for bit := 0; bit < 8; bit++ {
			block[byteIdx] ^= 1 << bit
			if Sum(block) == orig {
				t.Fatalf("single-bit flip at byte %d bit %d aliased", byteIdx, bit)
			}
			block[byteIdx] ^= 1 << bit
		}
	}
}

func TestSumDetectsDoubleBitFlips(t *testing.T) {
	block := make([]byte, 64)
	for i := range block {
		block[i] = byte(i)
	}
	orig := Sum(block)
	// Sample pairs of bit positions rather than all (512 choose 2).
	for a := 0; a < 512; a += 7 {
		for b := a + 1; b < 512; b += 13 {
			block[a/8] ^= 1 << (a % 8)
			block[b/8] ^= 1 << (b % 8)
			if Sum(block) == orig {
				t.Fatalf("double-bit flip at bits %d,%d aliased", a, b)
			}
			block[b/8] ^= 1 << (b % 8)
			block[a/8] ^= 1 << (a % 8)
		}
	}
}

// reference is the CRC by its definition: every bit shifted through Poly
// one at a time, no table — the loop init derives the kernel's tables from.
func reference(data []byte) Signature {
	var crc uint16 = 0xffff
	for _, b := range data {
		crc ^= uint16(b)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ Poly
			} else {
				crc >>= 1
			}
		}
	}
	return Signature(^crc)
}

// TestSumMatchesDefinition pins the slicing-by-8 kernel to the bitwise
// definition at every length 0..80 from every start offset 0..7, so each
// tail length and each alignment of the 8-byte step is covered, through
// Sum and through a Digest fed the same bytes in one Write.
func TestSumMatchesDefinition(t *testing.T) {
	buf := make([]byte, 8+80)
	for i := range buf {
		buf[i] = byte(i*151 + 29)
	}
	for off := 0; off < 8; off++ {
		for n := 0; n <= 80; n++ {
			data := buf[off : off+n]
			want := reference(data)
			if got := Sum(data); got != want {
				t.Fatalf("Sum(offset %d, len %d) = %#04x, want %#04x", off, n, got, want)
			}
			d := NewDigest()
			d.Write(data)
			if got := d.Sum16(); got != want {
				t.Fatalf("Digest(offset %d, len %d) = %#04x, want %#04x", off, n, got, want)
			}
		}
	}
}

// TestSumWordsMatchesDefinition does the same for 0..9 words.
func TestSumWordsMatchesDefinition(t *testing.T) {
	words := make([]uint64, 9)
	for i := range words {
		words[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	for n := 0; n <= len(words); n++ {
		var bytes []byte
		for _, w := range words[:n] {
			bytes = binary.LittleEndian.AppendUint64(bytes, w)
		}
		if got, want := SumWords(words[:n]), reference(bytes); got != want {
			t.Fatalf("SumWords(%d words) = %#04x, want %#04x", n, got, want)
		}
	}
}

func TestSumWordsMatchesSum(t *testing.T) {
	f := func(words []uint64) bool {
		bytes := make([]byte, 8*len(words))
		for i, w := range words {
			for j := 0; j < 8; j++ {
				bytes[8*i+j] = byte(w >> (8 * j))
			}
		}
		return Sum(bytes) == SumWords(words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSumDeterministic(t *testing.T) {
	in := []byte("dvmc coherence checker block data")
	if Sum(in) != Sum(in) {
		t.Error("Sum is not deterministic")
	}
}
