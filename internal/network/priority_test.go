package network

import (
	"testing"

	"dvmc/internal/sim"
)

// TestPriorityProtocolOvertakesInform: a coherence message queued behind
// inform traffic is served first.
func TestPriorityProtocolOvertakesInform(t *testing.T) {
	var k sim.Kernel
	tor := NewTorus(2, 1.0, 0, sim.NewRand(1)) // slow link: 1 B/cycle
	k.Register(tor)
	var order []Class
	tor.SetHandler(1, func(m *Message) { order = append(order, m.Class) })
	tor.SetHandler(0, func(*Message) {})
	// Fill the link: one in-flight message, then queue inform + coherence.
	tor.Send(&Message{Src: 0, Dst: 1, Size: 64, Class: ClassCoherence})
	k.Run(2)
	tor.Send(&Message{Src: 0, Dst: 1, Size: 16, Class: ClassInform})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 16, Class: ClassInform})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence})
	k.RunUntil(func() bool { return len(order) == 4 }, 10000)
	if len(order) != 4 {
		t.Fatalf("delivered %d of 4", len(order))
	}
	if order[1] != ClassCoherence {
		t.Errorf("order %v: the queued coherence message should overtake informs", order)
	}
}

// TestPriorityBoundedStarvation: a deferred inform is served within
// maxDefer even under a continuous coherence stream.
func TestPriorityBoundedStarvation(t *testing.T) {
	var k sim.Kernel
	tor := NewTorus(2, 8.0, 0, sim.NewRand(1))
	k.Register(tor)
	var informAt sim.Cycle
	tor.SetHandler(1, func(m *Message) {
		if m.Class == ClassInform && informAt == 0 {
			informAt = k.Now()
		}
	})
	tor.SetHandler(0, func(*Message) {})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 16, Class: ClassInform})
	// Saturate with coherence traffic for a long time.
	stop := sim.Cycle(2 * maxDefer)
	for k.Now() < stop {
		tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence})
		k.Step()
	}
	k.Run(200)
	if informAt == 0 {
		t.Fatal("inform never delivered")
	}
	if informAt > maxDefer+200 {
		t.Errorf("inform starved until cycle %d (maxDefer %d)", informAt, maxDefer)
	}
}

// TestTorusResetDropsInFlight verifies recovery semantics.
func TestTorusResetDropsInFlight(t *testing.T) {
	var k sim.Kernel
	tor := NewTorus(4, 1.0, 5, sim.NewRand(1))
	k.Register(tor)
	delivered := 0
	for i := 0; i < 4; i++ {
		tor.SetHandler(NodeID(i), func(*Message) { delivered++ })
	}
	for i := 0; i < 10; i++ {
		tor.Send(&Message{Src: 0, Dst: 3, Size: 64, Class: ClassCoherence})
	}
	k.Run(3)
	tor.Reset()
	k.Run(5000)
	if delivered != 0 {
		t.Errorf("%d messages survived Reset", delivered)
	}
	// The network still works after a reset.
	tor.Send(&Message{Src: 0, Dst: 3, Size: 8, Class: ClassCoherence})
	k.RunUntil(func() bool { return delivered == 1 }, 5000)
	if delivered != 1 {
		t.Error("post-reset delivery failed")
	}
}

// TestBroadcastResetKeepsSequence verifies logical time monotonicity
// across recovery.
func TestBroadcastResetKeepsSequence(t *testing.T) {
	var k sim.Kernel
	bt := NewBroadcastTree(2, 8.0, 0, sim.NewRand(1))
	k.Register(bt)
	bt.SetHandler(0, func(*Message) {})
	bt.SetHandler(1, func(*Message) {})
	for i := 0; i < 5; i++ {
		bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	}
	k.Run(100)
	seqBefore := bt.Sequence()
	if seqBefore == 0 {
		t.Fatal("no broadcasts processed")
	}
	bt.Reset()
	if bt.Sequence() != seqBefore {
		t.Error("Reset rewound logical time")
	}
	bt.Send(&Message{Src: 1, Size: 8, Class: ClassCoherence})
	k.Run(100)
	if bt.Sequence() != seqBefore+1 {
		t.Errorf("sequence %d after reset+1 broadcast, want %d", bt.Sequence(), seqBefore+1)
	}
}
