package network

import (
	"reflect"
	"testing"

	"dvmc/internal/sim"
)

// TestKeptEqualsNew runs a torus and a broadcast tree with messages in
// flight and held, re-initialises each for its own size and for another,
// and requires it to equal one built new with the same arguments once the
// storage its init keeps is blanked in both: a field init forgets to
// reset shows as a difference.
func TestKeptEqualsNew(t *testing.T) {
	rng, transits := sim.NewRand(3), new(sim.FreeList[transit])
	for _, tc := range []struct {
		name string
		// run builds the network for 4 nodes and leaves traffic in it;
		// init re-initialises it for n nodes, or builds one new (kept nil).
		run   func() any
		init  func(kept any, n int) any
		blank func(x any)
	}{
		{"Torus", func() any {
			tor, k := newTestTorus(4)
			var s sink
			for i := 0; i < 4; i++ {
				tor.SetHandler(NodeID(i), s.handler())
			}
			tor.SetFaultWindow(100)
			held := 0
			tor.SetFaultHook(func(*Message) FaultAction {
				held++
				return []FaultAction{FaultNone, FaultHold, FaultDelay}[held%3]
			})
			for i := 0; i < 24; i++ {
				tor.Send(&Message{Src: NodeID(i % 4), Dst: NodeID(i * 3 % 4), Size: 72, Class: ClassCoherence})
			}
			k.Run(6)
			return tor
		}, func(kept any, n int) any {
			tor, _ := kept.(*Torus)
			if tor == nil {
				tor = new(Torus)
			}
			return tor.init(n, 2.5, 3, rng, transits)
		}, func(x any) {
			tor := x.(*Torus)
			tor.local, tor.delayed, tor.held, tor.routes = none(tor.local), none(tor.delayed), none(tor.held), nil
			for _, l := range tor.links {
				l.queue = none(l.queue)
			}
		}},
		{"BroadcastTree", func() any {
			var k sim.Kernel
			b := NewBroadcastTree(4, 8, 3, nil)
			k.Register(b)
			b.WakeOnAdvance(sim.Slot{})
			for i := 0; i < 8; i++ {
				b.Send(&Message{Src: NodeID(i % 4), Size: 8})
			}
			k.Run(4)
			return b
		}, func(kept any, n int) any {
			b, _ := kept.(*BroadcastTree)
			if b == nil {
				b = new(BroadcastTree)
			}
			return b.init(n, 2.5, 5)
		}, func(x any) { x.(*BroadcastTree).queue = none(x.(*BroadcastTree).queue) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{4, 8} {
				got, want := tc.init(tc.run(), n), tc.init(nil, n)
				tc.blank(got)
				tc.blank(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("re-initialised for %d nodes:\n%+v\nnew:\n%+v", n, got, want)
				}
			}
		})
	}
}

// none is s, or nil if s is empty: how a test blanks the storage an init
// keeps, without hiding what it forgot to empty.
func none[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
