package network

import (
	"testing"

	"dvmc/internal/sim"
)

// torusBench builds a 2x2 torus whose handlers count deliveries.
func torusBench() (*Torus, *int) {
	tor := NewTorus(4, 1.25, 2, sim.NewRand(1))
	delivered := new(int)
	for n := 0; n < 4; n++ {
		tor.SetHandler(NodeID(n), func(*Message) { *delivered++ })
	}
	return tor, delivered
}

func BenchmarkTorusSendDeliver(b *testing.B) {
	tor, _ := torusBench()
	msgs := [4]Message{}
	now := sim.Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &msgs[i&3]
		*m = Message{Src: NodeID(i & 3), Dst: NodeID((i + 1) & 3), Size: 16, Class: ClassCoherence}
		tor.Send(m)
		for j := 0; j < 8; j++ {
			now++
			tor.Tick(now)
		}
	}
}

func TestTorusSteadyStateAllocFree(t *testing.T) {
	tor, delivered := torusBench()
	msgs := [4]Message{}
	now := sim.Cycle(0)
	i := 0
	step := func() {
		m := &msgs[i&3]
		*m = Message{Src: NodeID(i & 3), Dst: NodeID((i + 1) & 3), Size: 16, Class: ClassCoherence}
		tor.Send(m)
		for j := 0; j < 8; j++ { // enough ticks to drain the route
			now++
			tor.Tick(now)
		}
		i++
	}
	for j := 0; j < 64; j++ {
		step() // warm route cache, transit freelist, link queues
	}
	// One measured run of 2000 steps: AllocsPerRun truncates the mean
	// per run to an integer, so only a single run counts an allocation
	// that happens once in the 2000.
	batch := func() {
		for k := 0; k < 2000; k++ {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("torus send/deliver steady state: %.0f allocs in 2000 steps, want 0", allocs)
	}
	if *delivered == 0 {
		t.Fatal("no messages delivered")
	}
}

// TestBroadcastTreeSteadyStateAllocFree: a busy tree (Send, arbitrate,
// deliver to every node) allocates nothing once its queue has grown.
func TestBroadcastTreeSteadyStateAllocFree(t *testing.T) {
	const nodes = 4
	bt := NewBroadcastTree(nodes, 1.25, 6, sim.NewRand(1))
	delivered := 0
	for n := 0; n < nodes; n++ {
		bt.SetHandler(NodeID(n), func(*Message) { delivered++ })
	}
	msgs := [4]Message{}
	now := sim.Cycle(0)
	i := 0
	step := func() {
		// Two broadcasts per step: the second queues behind the first.
		for j := 0; j < 2; j++ {
			m := &msgs[(2*i+j)&3]
			*m = Message{Src: NodeID(i % nodes), Size: 8 + 64*j, Class: ClassCoherence}
			bt.Send(m)
		}
		for want := delivered + 2*nodes; delivered < want; {
			now++
			bt.Tick(now)
		}
		i++
	}
	for j := 0; j < 64; j++ {
		step() // grow the queue's backing array
	}
	// One measured run of 2000 steps, as for the torus.
	batch := func() {
		for k := 0; k < 2000; k++ {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("broadcast send/deliver steady state: %.0f allocs in 2000 steps, want 0", allocs)
	}
	if bt.Sequence() != 2*(64+2000+2000) {
		t.Fatalf("Sequence() = %d, want every broadcast delivered", bt.Sequence())
	}
}
