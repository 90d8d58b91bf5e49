package hash

import (
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
