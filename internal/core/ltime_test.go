package core

import (
	"testing"
	"testing/quick"
)

func TestWrapTruncates(t *testing.T) {
	tests := []struct {
		in   uint64
		want uint16
	}{
		{0, 0},
		{0xffff, 0xffff},
		{0x10000, 0},
		{0x12345, 0x2345},
	}
	for _, tt := range tests {
		if got := Wrap(tt.in); got.v != tt.want {
			t.Errorf("Wrap(%#x) = %#x, want %#x", tt.in, got.v, tt.want)
		}
	}
}

func TestReconstructExactWithinHalfRange(t *testing.T) {
	// Any true time within half the 16-bit range of the reference must
	// reconstruct exactly — including across wraparound boundaries.
	f := func(ref uint32, offRaw uint16) bool {
		near := uint64(ref)
		off := int64(offRaw%halfRange) - halfRange/2
		truth := int64(near) + off
		if truth < 0 {
			return true // skip unrepresentable
		}
		got := Wrap(uint64(truth)).Reconstruct(near)
		return got == uint64(truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestReconstructAcrossWraparound(t *testing.T) {
	tests := []struct {
		truth, near uint64
	}{
		{0xfffe, 0x10002},      // stamp just before wrap, clock just after
		{0x10002, 0xfffe},      // stamp after wrap, clock before
		{0x2fff0, 0x30010},     // second wrap
		{5, 5},                 // trivial
		{0x17fff, 0x17fff + 9}, // mid-range
	}
	for _, tt := range tests {
		if got := Wrap(tt.truth).Reconstruct(tt.near); got != tt.truth {
			t.Errorf("Reconstruct(Wrap(%#x), near=%#x) = %#x", tt.truth, tt.near, got)
		}
	}
}

// TestReconstructNearWrapBoundary pins the cases Time16's struct type
// exists to protect: references exactly at (or next to) a multiple of
// 2^16, where the truncated stamp and the reference clock live on
// opposite sides of a wraparound and raw 16-bit comparison would order
// them wrongly.
func TestReconstructNearWrapBoundary(t *testing.T) {
	nears := []uint64{1 << 16, 2 << 16, 3 << 16, 1 << 32, 1 << 48}
	offs := []int64{-(halfRange - 1), -0x1000, -2, -1, 0, 1, 2, 0x1000, halfRange - 1}
	for _, near := range nears {
		for _, off := range offs {
			truth := uint64(int64(near) + off)
			if got := Wrap(truth).Reconstruct(near); got != truth {
				t.Errorf("Reconstruct(Wrap(%#x), near=%#x) = %#x, want %#x", truth, near, got, truth)
			}
		}
	}
}

// TestReconstructAtRangeEnds exercises the candidate arithmetic at the
// ends of the uint64 range, where cand-2^16 would underflow (near ~ 0)
// and cand+2^16 overflows (near ~ 2^64); both must be rejected as
// candidates, never chosen via wrapped distances.
func TestReconstructAtRangeEnds(t *testing.T) {
	maxU := ^uint64(0)
	cases := []struct{ truth, near uint64 }{
		// Bottom of the range: no negative candidates exist.
		{0, 0},
		{1, 0},
		{halfRange - 1, 0},
		{0, halfRange - 1},
		// dist is halfRange-1: the last unambiguous point below a tie.
		{0xffff, 0x10000 + halfRange - 2},
		// Top of the range: cand+2^16 overflows and must not win.
		{maxU, maxU},
		{maxU - (halfRange - 1), maxU},
		{maxU, maxU - (halfRange - 1)},
		{maxU - 0x7fff, maxU - 0x10},
	}
	for _, tt := range cases {
		if got := Wrap(tt.truth).Reconstruct(tt.near); got != tt.truth {
			t.Errorf("Reconstruct(Wrap(%#x), near=%#x) = %#x, want %#x", tt.truth, tt.near, got, tt.truth)
		}
	}
}

// TestReconstructPicksClosestCongruent documents behavior outside the
// scrubbing guarantee: the result is always congruent to the stamp
// mod 2^16 and is the congruent value closest to the reference.
func TestReconstructPicksClosestCongruent(t *testing.T) {
	f := func(stampRaw uint16, nearRaw uint64) bool {
		stamp := Wrap(uint64(stampRaw))
		near := nearRaw
		got := stamp.Reconstruct(near)
		if Wrap(got) != stamp {
			return false
		}
		// No congruent value one period up or down may be strictly
		// closer (where representable).
		d := dist(got, near)
		if got >= 1<<16 && dist(got-1<<16, near) < d {
			return false
		}
		if got <= ^uint64(0)-1<<16 && dist(got+1<<16, near) < d {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestBefore16Modular(t *testing.T) {
	tests := []struct {
		a, b uint64
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{0xfffe, 0x0002, true}, // wraps: 0xfffe is just before 2
		{0x0002, 0xfffe, false},
	}
	for _, tt := range tests {
		if got := Before(Wrap(tt.a), Wrap(tt.b)); got != tt.want {
			t.Errorf("Before(%#x, %#x) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestViolationStrings(t *testing.T) {
	kinds := []ViolationKind{UOMismatch, UOStoreMismatch, ReorderViolation, LostOperation,
		OperationTimeout, EpochAccessViolation, EpochOverlap, DataPropagation,
		CETStateViolation, ECCCorrected}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty or duplicate string %q", k, s)
		}
		seen[s] = true
	}
	v := Violation{Kind: EpochOverlap, Node: 3, Block: 0x40, Cycle: 99, Detail: "x"}
	if v.String() == "" {
		t.Error("Violation.String empty")
	}
}

func TestCollectorSink(t *testing.T) {
	var c CollectorSink
	if _, ok := c.First(); ok {
		t.Error("empty collector reports a violation")
	}
	c.Violation(Violation{Kind: UOMismatch})
	c.Violation(Violation{Kind: EpochOverlap})
	if c.Count() != 2 {
		t.Errorf("Count = %d", c.Count())
	}
	if v, ok := c.First(); !ok || v.Kind != UOMismatch {
		t.Errorf("First = %v, %v", v, ok)
	}
	called := false
	SinkFunc(func(Violation) { called = true }).Violation(Violation{})
	if !called {
		t.Error("SinkFunc did not forward")
	}
}
