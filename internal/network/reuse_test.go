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
// reset shows as a difference. A Spare that kept a torus of each of two
// sizes, alternately, hands each size its own torus back, and releases
// the messages a kept torus still held.
func TestKeptEqualsNew(t *testing.T) {
	rng, transits := sim.NewRand(3), new(sim.FreeList[transit])
	var msgs Pool[int]
	keptOf := map[int]*Torus{}
	blankTorus := func(x any) {
		tor := x.(*Torus)
		tor.local, tor.delayed, tor.held, tor.routes = none(tor.local), none(tor.delayed), none(tor.held), nil
		for _, l := range tor.links {
			l.queue = none(l.queue)
		}
	}
	for _, tc := range []struct {
		name string
		// run builds the network for 4 nodes and leaves traffic in it;
		// init re-initialises it for n nodes, or builds one new (kept nil).
		run   func() any
		init  func(kept any, n int) any
		blank func(x any)
	}{
		{"Torus", func() any {
			tor, _ := newTestTorus(4)
			loadTorus(tor, nil)
			return tor
		}, func(kept any, n int) any {
			tor, _ := kept.(*Torus)
			if tor == nil {
				tor = new(Torus)
			}
			return tor.init(n, 2.5, 3, rng, transits)
		}, blankTorus},
		{"Spare", func() any {
			sp := new(Spare)
			clear(keptOf)
			for _, n := range []int{4, 8, 4, 8} {
				tor := sp.NewTorus(n, 8.0, 2, sim.NewRand(1))
				if kept := keptOf[n]; kept != nil && tor != kept {
					t.Errorf("a %d-node system took another torus than the one its size kept", n)
				}
				keptOf[n] = tor
				loadTorus(tor, &msgs)
				sp.Keep(tor, nil)
			}
			if err := msgs.Balance(); err != nil {
				t.Error(err)
			}
			return sp
		}, func(kept any, n int) any {
			sp, _ := kept.(*Spare)
			if sp == nil {
				return new(Torus).init(n, 2.5, 3, rng, transits)
			}
			tor := sp.NewTorus(n, 2.5, 3, rng)
			if tor != keptOf[n] {
				t.Errorf("a %d-node system took another torus than the one its size kept", n)
			}
			tor.transits = transits
			return tor
		}, blankTorus},
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

// loadTorus leaves traffic on tor: messages from msgs queued, in flight,
// delivered, held and delayed. Its handlers release what they are given.
func loadTorus(tor *Torus, msgs *Pool[int]) {
	var k sim.Kernel
	k.Register(tor)
	n := len(tor.handlers)
	for i := 0; i < n; i++ {
		tor.SetHandler(NodeID(i), (*Message).Release)
	}
	tor.SetFaultWindow(100)
	held := 0
	tor.SetFaultHook(func(*Message) FaultAction {
		held++
		return []FaultAction{FaultNone, FaultHold, FaultDelay}[held%3]
	})
	for i := 0; i < 6*n; i++ {
		tor.Send(msgs.Wrap(Message{Src: NodeID(i % n), Dst: NodeID(i * 3 % n), Size: 72, Class: ClassCoherence}, i))
	}
	k.Run(6)
}

// none is s, or nil if s is empty: how a test blanks the storage an init
// keeps, without hiding what it forgot to empty.
func none[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
