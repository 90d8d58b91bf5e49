package core

import (
	"reflect"
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestKeptEqualsNew re-initialises each checker after it ran, once for
// another shape and once for its own, and requires it to equal one built
// new with the same arguments once the storage its init keeps is blanked
// in both: a field init forgets to reset shows as a difference.
func TestKeptEqualsNew(t *testing.T) {
	clock := &manualClock{t: 100}
	sink := &CollectorSink{}
	net := &fakeNet{}
	small, wide := testCfg(), coherence.Config{Nodes: 4, L1Sets: 4, L1Ways: 2, L2Sets: 8, L2Ways: 4}
	for _, tc := range []struct {
		name string
		// run builds the checker for cfg, or re-initialises kept for it,
		// and puts it through epochs, informs or loads; init builds it
		// for cfg on kept, with arguments that compare equal.
		run   func(kept any, cfg coherence.Config) any
		init  func(kept any, cfg coherence.Config) any
		blank func(x any)
	}{
		{"MemChecker", func(kept any, cfg coherence.Config) any {
			m := orNew[MemChecker](kept).init(0, cfg, clock, func() sim.Cycle { return 9 }, sink)
			for b := mem.BlockAddr(0); b < 40; b += 8 {
				m.BlockRequested(b, blockData(mem.Word(b)))
				m.Handle(&network.Message{Payload: &InformEpoch{Block: b, Kind: coherence.ReadWrite, Begin: Wrap(101), End: Wrap(102)}})
			}
			return m
		}, func(kept any, cfg coherence.Config) any {
			return orNew[MemChecker](kept).init(3, cfg, clock, nil, sink)
		}, func(x any) {
			m := x.(*MemChecker)
			m.slab, m.pq.segs = none(m.slab), nil
		}},
		{"CacheChecker", func(kept any, cfg coherence.Config) any {
			c := orNew[CacheChecker](kept).init(1, cfg, net, clock, func() sim.Cycle { return 9 }, sink)
			for b := mem.BlockAddr(0); b < 40; b += 8 {
				c.EpochBegin(b, coherence.ReadWrite, 110, true, blockData(0))
				c.Access(b, true)
				if b%16 == 0 {
					c.EpochEnd(b, coherence.ReadWrite, 120, blockData(7))
				}
			}
			return c
		}, func(kept any, cfg coherence.Config) any {
			return orNew[CacheChecker](kept).init(2, cfg, net, clock, nil, sink)
		}, func(x any) {
			c := x.(*CacheChecker)
			c.slab, c.free, c.scrub.segs = none(c.slab), none(c.free), nil
		}},
		{"UniprocChecker", func(kept any, cfg coherence.Config) any {
			u := orNew[UniprocChecker](kept).init(0, cfg.L2Sets, true, sink)
			for a := mem.Addr(0); a < 128; a += 8 {
				u.LoadExecuted(a, mem.Word(a))
			}
			return u
		}, func(kept any, cfg coherence.Config) any {
			return orNew[UniprocChecker](kept).init(1, cfg.L2Sets, false, sink)
		}, func(x any) {
			u := x.(*UniprocChecker)
			u.slab, u.free = none(u.slab), none(u.free)
		}},
		{"ReorderChecker", func(kept any, cfg coherence.Config) any {
			r := orNew[ReorderChecker](kept).init(0, sink)
			r.OpCommitted(0, true)
			return r
		}, func(kept any, cfg coherence.Config) any {
			return orNew[ReorderChecker](kept).init(2, sink)
		}, func(any) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kept := tc.run(nil, small)
			for _, cfg := range []coherence.Config{wide, wide} {
				got, want := tc.init(kept, cfg), tc.init(nil, cfg)
				if got != kept {
					t.Fatal("init built a new checker instead of re-initialising the kept one")
				}
				tc.blank(got)
				tc.blank(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("re-initialised %+v\nnew %+v", got, want)
				}
				tc.run(kept, cfg)
			}
		})
	}
}

// orNew returns kept as a *T, or a new T if kept is nil.
func orNew[T any](kept any) *T {
	if kept == nil {
		return new(T)
	}
	return kept.(*T)
}

// none is s, or nil if s is empty: how a test blanks the storage an init
// keeps, without hiding what it forgot to empty.
func none[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
