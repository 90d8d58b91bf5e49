package coherence

import (
	"reflect"
	"slices"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestKeptEqualsNew runs each controller and home in a harness, leaves
// accesses in flight, re-initialises it for its own geometry and for
// another one, and requires it to equal one built new with the same
// arguments once the storage its init keeps is blanked in both: a field
// init forgets to reset shows as a difference.
func TestKeptEqualsNew(t *testing.T) {
	other := Config{Nodes: 4, L1Sets: 8, L1Ways: 1, L2Sets: 16, L2Ways: 2}
	r, memory, clock := new(records), mem.NewMemory(), NewSkewedClock(func() sim.Cycle { return 0 }, 0, 8)
	for _, tc := range []struct {
		name  string
		proto protocolKind
		// init re-initialises node 0's component of h for cfg, or builds one
		// new (h nil), with arguments that compare equal.
		init func(h *harness, cfg Config) any
	}{
		{"DirCache", directory, func(h *harness, cfg Config) any {
			return orNew[DirCache](h, func(h *harness) any { return h.ctrls[0] }).init(1, cfg, nil, clock, r)
		}},
		{"SnoopCache", snooping, func(h *harness, cfg Config) any {
			return orNew[SnoopCache](h, func(h *harness) any { return h.ctrls[0] }).init(1, cfg, nil, nil, r)
		}},
		{"DirHome", directory, func(h *harness, cfg Config) any {
			return orNew[DirHome](h, func(h *harness) any { return h.homes[0] }).init(1, cfg, nil, memory, r)
		}},
		{"SnoopHome", snooping, func(h *harness, cfg Config) any {
			return orNew[SnoopHome](h, func(h *harness) any { return h.homes[0] }).init(1, cfg, nil, memory, r)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []Config{testConfig(2), other} {
				h := newHarness(t, tc.proto, 2)
				for i := mem.Addr(0); i < 12; i++ {
					h.store(t, int(i)%2, i*mem.BlockBytes, mem.Word(i))
				}
				h.ctrl(0).Load(0x4000, network.ClassCoherence, func(mem.Word, bool) {})
				h.ctrl(1).Store(0x8000, 1, func() {})
				h.k.Run(20)
				got, want := tc.init(h, cfg), tc.init(nil, cfg)
				blankKept(t, got)
				blankKept(t, want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("re-initialised for %+v:\n%+v\nnew:\n%+v", cfg, got, want)
				}
			}
		})
	}
}

// orNew returns the component of h that of picks, or a new T if h is nil.
func orNew[T any](h *harness, of func(*harness) any) *T {
	if h == nil {
		return new(T)
	}
	return of(h).(*T)
}

// blankKept clears the storage init keeps, which a new component makes
// afresh, where it holds nothing: array chunks, the writeback order
// buffer and the event queue's array.
func blankKept(t *testing.T, x any) {
	t.Helper()
	var q *sim.EventQueue
	switch x := x.(type) {
	case *DirCache:
		blankCore(&x.ctrlCore)
		q = &x.events
	case *SnoopCache:
		blankCore(&x.ctrlCore)
		q = &x.events
	case *DirHome:
		q = &x.events
	case *SnoopHome:
		q = &x.events
	}
	if q.Len() != 0 {
		t.Fatalf("%T keeps %d events", x, q.Len())
	}
	*q = sim.EventQueue{}
}

func blankCore(c *ctrlCore) {
	for k := range c.l2.chunks {
		c.l2.chunks[k].entries = zeroOrNil(c.l2.chunks[k].entries)
	}
	for k := range c.l1.chunks {
		c.l1.chunks[k].entries = zeroOrNil(c.l1.chunks[k].entries)
	}
	c.wbOrder = zeroOrNil(c.wbOrder)
}

// zeroOrNil is s, or nil if every entry of s is zero.
func zeroOrNil[E comparable](s []E) []E {
	var zero E
	if slices.ContainsFunc(s, func(e E) bool { return e != zero }) {
		return s
	}
	return nil
}
