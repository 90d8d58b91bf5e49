package sim

import (
	"reflect"
	"testing"
)

// TestKeptEqualsNew re-initialises a kernel that ran components, for a
// table of its own size and for a larger one, and an event queue with
// events pending, and requires each to equal one built new: a field init
// forgets to reset shows as a difference.
func TestKeptEqualsNew(t *testing.T) {
	for _, n := range []int{5, 70} {
		k := NewKernel(5)
		for i := 0; i < 5; i++ {
			k.Register(&counter{})
		}
		k.Run(100)
		if got, want := k.Init(n), NewKernel(n); !reflect.DeepEqual(got, want) {
			t.Errorf("kernel re-initialised for %d components:\n%+v\nnew:\n%+v", n, got, want)
		}
	}

	var q EventQueue
	for i := Cycle(0); i < 6; i++ {
		q.At(i, func() {})
	}
	q.Tick(2)
	if got := q.Emptied(); got.Len() != 0 || got.seq != 0 || cap(got.h) == 0 {
		t.Errorf("the emptied queue holds %d events, seq %d, capacity %d", got.Len(), got.seq, cap(got.h))
	}
}
