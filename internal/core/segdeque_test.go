package core

import (
	"testing"

	"dvmc/internal/sim"
)

// TestSegDequeMatchesSlice drives a segDeque and a plain slice with the
// same random pushes and pops at both ends, and compares every entry after
// each step. Runs that drain and refill exercise segment reuse at the back;
// at the end the deque holds no more segments than its peak needed.
func TestSegDequeMatchesSlice(t *testing.T) {
	rng := sim.NewRand(7)
	var d segDeque[int]
	var want []int
	peak := 0
	for step := 0; step < 20_000; step++ {
		// Phases of growth and of shrinkage, so the length wanders over
		// several segments and back to empty.
		pushes := 3
		if step/500%2 == 0 {
			pushes = 7
		}
		switch {
		case rng.Intn(10) < pushes:
			v := rng.Intn(1 << 20)
			d.push(v)
			want = append(want, v)
		case len(want) == 0:
			continue
		case rng.Intn(2) == 0:
			if got := d.popFront(); got != want[0] {
				t.Fatalf("step %d: popFront %d, want %d", step, got, want[0])
			}
			want = want[1:]
		default:
			if got := d.popBack(); got != want[len(want)-1] {
				t.Fatalf("step %d: popBack %d, want %d", step, got, want[len(want)-1])
			}
			want = want[:len(want)-1]
		}
		peak = max(peak, len(want))
		if d.len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", step, d.len(), len(want))
		}
		for i, w := range want {
			if got := *d.at(i); got != w {
				t.Fatalf("step %d: at(%d) = %d, want %d", step, i, got, w)
			}
		}
	}
	if need := (peak+segLen-1)/segLen + 1; len(d.segs) > need {
		t.Errorf("%d segments for a peak of %d entries; %d suffice", len(d.segs), peak, need)
	}
	d.reset()
	if d.len() != 0 || d.head != 0 {
		t.Errorf("after reset: len %d, head %d", d.len(), d.head)
	}
}
