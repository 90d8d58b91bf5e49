package sim

import "testing"

func TestEventQueueFiresInOrder(t *testing.T) {
	var q EventQueue
	var got []int
	q.At(5, func() { got = append(got, 5) })
	q.At(3, func() { got = append(got, 3) })
	q.At(4, func() { got = append(got, 4) })
	for c := Cycle(0); c <= 10; c++ {
		q.Tick(c)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Errorf("fire order = %v, want [3 4 5]", got)
	}
}

func TestEventQueueFIFOWithinCycle(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(7, func() { got = append(got, i) })
	}
	q.Tick(7)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle order = %v, want FIFO", got)
		}
	}
}

func TestEventQueueLateTickCatchesUp(t *testing.T) {
	var q EventQueue
	fired := 0
	q.At(1, func() { fired++ })
	q.At(2, func() { fired++ })
	q.Tick(100)
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (overdue events must fire)", fired)
	}
}

func TestEventQueueScheduleDuringTick(t *testing.T) {
	var q EventQueue
	var got []string
	q.At(1, func() {
		got = append(got, "outer")
		q.At(1, func() { got = append(got, "inner-now") })
		q.At(2, func() { got = append(got, "inner-later") })
	})
	q.Tick(1)
	if len(got) != 2 || got[1] != "inner-now" {
		t.Errorf("after Tick(1): %v, want [outer inner-now]", got)
	}
	q.Tick(2)
	if len(got) != 3 || got[2] != "inner-later" {
		t.Errorf("after Tick(2): %v", got)
	}
}

func TestEventQueueLen(t *testing.T) {
	var q EventQueue
	if q.Len() != 0 {
		t.Errorf("empty Len = %d", q.Len())
	}
	q.At(1, func() {})
	q.At(2, func() {})
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	q.Tick(1)
	if q.Len() != 1 {
		t.Errorf("Len after tick = %d, want 1", q.Len())
	}
}
