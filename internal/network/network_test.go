package network

import (
	"reflect"
	"testing"

	"dvmc/internal/sim"
)

func newTestTorus(n int) (*Torus, *sim.Kernel) {
	var k sim.Kernel
	t := NewTorus(n, 8.0, 2, sim.NewRand(1))
	k.Register(t)
	return t, &k
}

type sink struct {
	got []*Message
}

func (s *sink) handler() Handler { return func(m *Message) { s.got = append(s.got, m) } }

func TestFactor(t *testing.T) {
	tests := []struct{ n, x, y int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2}, {16, 4, 4}, {7, 7, 1},
	}
	for _, tt := range tests {
		x, y := factor(tt.n)
		if x != tt.x || y != tt.y {
			t.Errorf("factor(%d) = (%d,%d), want (%d,%d)", tt.n, x, y, tt.x, tt.y)
		}
	}
}

func TestTorusDeliversMessage(t *testing.T) {
	tor, k := newTestTorus(8)
	var s sink
	for i := 0; i < 8; i++ {
		tor.SetHandler(NodeID(i), s.handler())
	}
	m := &Message{Src: 0, Dst: 5, Size: 72, Class: ClassCoherence, Payload: "hello"}
	tor.Send(m)
	if !k.RunUntil(func() bool { return len(s.got) > 0 }, 1000) {
		t.Fatal("message not delivered within 1000 cycles")
	}
	if len(s.got) != 1 || s.got[0] != m {
		t.Errorf("delivered %d messages, want the one sent", len(s.got))
	}
}

func TestTorusAllPairsDeliver(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		tor, k := newTestTorus(n)
		received := make(map[NodeID]int)
		for i := 0; i < n; i++ {
			i := NodeID(i)
			tor.SetHandler(i, func(m *Message) {
				if m.Dst != i {
					t.Errorf("n=%d: message for %d delivered at %d", n, m.Dst, i)
				}
				received[i]++
			})
		}
		want := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				tor.Send(&Message{Src: NodeID(s), Dst: NodeID(d), Size: 8, Class: ClassCoherence})
				want++
			}
		}
		total := func() int {
			sum := 0
			for _, v := range received {
				sum += v
			}
			return sum
		}
		if !k.RunUntil(func() bool { return total() == want }, 100000) {
			t.Fatalf("n=%d: only %d/%d messages delivered", n, total(), want)
		}
	}
}

func TestTorusLatencyScalesWithDistance(t *testing.T) {
	tor, k := newTestTorus(8) // 4x2
	var near, far sim.Cycle
	tor.SetHandler(1, func(*Message) { near = k.Now() })
	tor.SetHandler(2, func(*Message) { far = k.Now() })
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence}) // 1 hop
	tor.Send(&Message{Src: 0, Dst: 2, Size: 8, Class: ClassCoherence}) // 2 hops
	k.Run(1000)
	if near == 0 || far == 0 {
		t.Fatal("messages not delivered")
	}
	if far <= near {
		t.Errorf("2-hop delivery (%d) not slower than 1-hop (%d)", far, near)
	}
}

func TestTorusBandwidthLimitsThroughput(t *testing.T) {
	// Saturating one link: messages serialise, so delivery of the batch
	// takes at least sum(size)/bw cycles.
	var k sim.Kernel
	tor := NewTorus(2, 1.0, 0, sim.NewRand(1)) // 1 byte/cycle
	k.Register(tor)
	delivered := 0
	tor.SetHandler(1, func(*Message) { delivered++ })
	tor.SetHandler(0, func(*Message) {})
	const msgs, size = 10, 64
	for i := 0; i < msgs; i++ {
		tor.Send(&Message{Src: 0, Dst: 1, Size: size, Class: ClassCoherence})
	}
	k.RunUntil(func() bool { return delivered == msgs }, 100000)
	if delivered != msgs {
		t.Fatalf("delivered %d/%d", delivered, msgs)
	}
	if k.Now() < msgs*size {
		t.Errorf("batch delivered in %d cycles, bandwidth should force >= %d", k.Now(), msgs*size)
	}
}

func TestTorusLocalLoopback(t *testing.T) {
	tor, k := newTestTorus(4)
	var s sink
	tor.SetHandler(0, s.handler())
	tor.Send(&Message{Src: 0, Dst: 0, Size: 72, Class: ClassCoherence})
	k.Run(3)
	if len(s.got) != 1 {
		t.Fatalf("loopback not delivered in 3 cycles")
	}
	for _, st := range tor.LinkStats() {
		if st.Bytes != 0 {
			t.Errorf("loopback consumed link bandwidth on %s", st.Name)
		}
	}
}

func TestTorusLinkStats(t *testing.T) {
	tor, k := newTestTorus(8)
	for i := 0; i < 8; i++ {
		tor.SetHandler(NodeID(i), func(*Message) {})
	}
	tor.Send(&Message{Src: 0, Dst: 1, Size: 100, Class: ClassInform})
	k.Run(200)
	stats := tor.LinkStats()
	var sum, informSum uint64
	for _, s := range stats {
		sum += s.Bytes
		informSum += s.ClassBytes(ClassInform)
	}
	if sum != 100 {
		t.Errorf("total link bytes = %d, want 100 (single hop)", sum)
	}
	if informSum != 100 {
		t.Errorf("inform-class bytes = %d, want 100", informSum)
	}
	max := MaxLink(stats)
	if max.Bytes != 100 {
		t.Errorf("MaxLink.Bytes = %d, want 100", max.Bytes)
	}
	if max.MeanBandwidth() <= 0 {
		t.Error("MaxLink mean bandwidth not positive")
	}
}

func TestTorusFaultDrop(t *testing.T) {
	tor, k := newTestTorus(4)
	var s sink
	tor.SetHandler(1, s.handler())
	armed := true
	tor.SetFaultHook(func(m *Message) FaultAction {
		if armed {
			armed = false
			return FaultDrop
		}
		return FaultNone
	})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence})
	k.Run(500)
	if len(s.got) != 1 {
		t.Errorf("delivered %d messages, want 1 (first dropped)", len(s.got))
	}
}

func TestTorusFaultDuplicate(t *testing.T) {
	tor, k := newTestTorus(4)
	var s sink
	tor.SetHandler(1, s.handler())
	once := true
	tor.SetFaultHook(func(m *Message) FaultAction {
		if once {
			once = false
			return FaultDuplicate
		}
		return FaultNone
	})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence})
	k.Run(500)
	if len(s.got) != 2 {
		t.Errorf("delivered %d messages, want 2 (duplicated)", len(s.got))
	}
}

func TestTorusFaultMisroute(t *testing.T) {
	tor, k := newTestTorus(8)
	deliveredAt := make(map[NodeID]int)
	for i := 0; i < 8; i++ {
		i := NodeID(i)
		tor.SetHandler(i, func(*Message) { deliveredAt[i]++ })
	}
	tor.SetFaultHook(func(m *Message) FaultAction { return FaultMisroute })
	// With a deterministic RNG the misroute target is fixed; just check
	// the message still lands somewhere (possibly even the right place).
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence})
	k.Run(500)
	total := 0
	for _, v := range deliveredAt {
		total += v
	}
	if total != 1 {
		t.Errorf("misrouted message delivered %d times, want 1", total)
	}
}

func TestTorusFaultDelayReorders(t *testing.T) {
	tor, k := newTestTorus(4)
	var order []string
	tor.SetHandler(1, func(m *Message) { order = append(order, m.Payload.(string)) })
	tor.SetFaultWindow(64)
	first := true
	tor.SetFaultHook(func(m *Message) FaultAction {
		if first {
			first = false
			return FaultDelay
		}
		return FaultNone
	})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence, Payload: "a"})
	tor.Send(&Message{Src: 0, Dst: 1, Size: 8, Class: ClassCoherence, Payload: "b"})
	k.Run(1000)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("order = %v, want [b a]", order)
	}
}

// TestTorusFaultWindow: the armed window alone fixes when a stateful
// fault's victim re-enters the torus: a FaultDelay victim, a
// FaultDupStale replay, and a FaultHold burst whose hook stays armed. A
// send at cycle 0 enters at cycle 1, and a loopback message is delivered
// on the cycle it enters.
func TestTorusFaultWindow(t *testing.T) {
	for _, action := range []FaultAction{FaultDelay, FaultDupStale, FaultHold} {
		for _, w := range []sim.Cycle{1, 64, 500} {
			tor, k := newTestTorus(4)
			var at []sim.Cycle
			tor.SetHandler(2, func(*Message) { at = append(at, k.Now()) })
			tor.SetFaultWindow(w)
			hit := false
			tor.SetFaultHook(func(*Message) FaultAction {
				if hit {
					return FaultNone
				}
				hit = true
				return action
			})
			tor.Send(&Message{Src: 2, Dst: 2, Size: 8, Class: ClassCoherence})
			k.RunUntil(tor.Quiet, 10_000)
			want := []sim.Cycle{1 + w}
			if action == FaultDupStale {
				want = []sim.Cycle{1, 1 + w} // the original, then its replay
			}
			if !reflect.DeepEqual(at, want) {
				t.Errorf("action %d, window %d: delivered at cycles %v, want %v", action, w, at, want)
			}
		}
	}
}

// TestTorusQuiet: the torus is quiet exactly when it holds no message —
// none on a link or the loopback list, none delayed, none held — whatever
// the fault hook did to the traffic, and again after a Reset drops it.
func TestTorusQuiet(t *testing.T) {
	for _, tc := range []struct {
		action FaultAction
		want   int // deliveries
	}{
		{FaultNone, 1}, {FaultDuplicate, 2}, {FaultDelay, 1}, {FaultDupStale, 2}, {FaultHold, 1}, {FaultDrop, 0},
	} {
		for _, dst := range []NodeID{0, 3} { // loopback, then over links
			tor, k := newTestTorus(4)
			var s sink
			tor.SetHandler(dst, s.handler())
			tor.SetFaultWindow(64)
			tor.SetFaultHook(func(*Message) FaultAction { return tc.action })
			tor.Send(&Message{Src: 0, Dst: dst, Size: 8, Class: ClassCoherence})
			if tor.Quiet() != (tc.want == 0) {
				t.Errorf("action %d to node %d: quiet %v right after the send", tc.action, dst, tor.Quiet())
			}
			if !k.RunUntil(tor.Quiet, 10_000) || len(s.got) != tc.want {
				t.Errorf("action %d to node %d: quiet %v after %d deliveries, want quiet after %d", tc.action, dst, tor.Quiet(), len(s.got), tc.want)
			}
			tor.Send(&Message{Src: 0, Dst: dst, Size: 8, Class: ClassCoherence})
			k.Step()
			tor.Reset()
			if !tor.Quiet() {
				t.Errorf("action %d to node %d: not quiet after Reset", tc.action, dst)
			}
		}
	}
}

// TestBroadcastTreeQuiet: the tree is quiet exactly when no broadcast is
// queued or in flight, and again after a Reset drops both.
func TestBroadcastTreeQuiet(t *testing.T) {
	var k sim.Kernel
	bt := NewBroadcastTree(2, 8.0, 3, sim.NewRand(1))
	k.Register(bt)
	n := 0
	bt.SetHandler(0, func(*Message) { n++ })
	bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	if bt.Quiet() {
		t.Fatal("quiet with two broadcasts queued")
	}
	k.Step() // the first is arbitrated, the second still queued
	if bt.Quiet() || n != 0 {
		t.Fatalf("quiet %v after %d deliveries with one broadcast in flight and one queued", bt.Quiet(), n)
	}
	if !k.RunUntil(func() bool { return n == 1 }, 10_000) || bt.Quiet() {
		t.Fatalf("quiet %v after %d deliveries with the second broadcast in flight", bt.Quiet(), n)
	}
	if !k.RunUntil(bt.Quiet, 10_000) || n != 2 {
		t.Errorf("quiet %v after %d deliveries, want quiet after 2", bt.Quiet(), n)
	}
	bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	k.Step()
	bt.Reset()
	if !bt.Quiet() {
		t.Error("not quiet after Reset")
	}
}

func TestBroadcastTreeTotalOrder(t *testing.T) {
	var k sim.Kernel
	bt := NewBroadcastTree(4, 2.0, 3, sim.NewRand(1))
	k.Register(bt)
	orders := make([][]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		bt.SetHandler(NodeID(i), func(m *Message) {
			orders[i] = append(orders[i], m.Payload.(int))
		})
	}
	for v := 0; v < 10; v++ {
		bt.Send(&Message{Src: NodeID(v % 4), Size: 8, Class: ClassCoherence, Payload: v})
	}
	k.Run(1000)
	for i := 0; i < 4; i++ {
		if len(orders[i]) != 10 {
			t.Fatalf("node %d saw %d broadcasts, want 10", i, len(orders[i]))
		}
		for j, v := range orders[i] {
			if v != orders[0][j] {
				t.Fatalf("node %d order %v differs from node 0 order %v", i, orders[i], orders[0])
			}
		}
	}
	if bt.Sequence() != 10 {
		t.Errorf("Sequence() = %d, want 10", bt.Sequence())
	}
}

func TestBroadcastTreeSenderSnoopsOwnRequest(t *testing.T) {
	var k sim.Kernel
	bt := NewBroadcastTree(2, 8.0, 1, sim.NewRand(1))
	k.Register(bt)
	seen := 0
	bt.SetHandler(0, func(*Message) { seen++ })
	bt.SetHandler(1, func(*Message) {})
	bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	k.Run(100)
	if seen != 1 {
		t.Errorf("sender snooped %d of its own requests, want 1", seen)
	}
}

func TestBroadcastTreeSerialisation(t *testing.T) {
	// With bw=1B/cy and 8B messages, 10 broadcasts need >= 80 cycles.
	var k sim.Kernel
	bt := NewBroadcastTree(2, 1.0, 0, sim.NewRand(1))
	k.Register(bt)
	n := 0
	bt.SetHandler(0, func(*Message) { n++ })
	for i := 0; i < 10; i++ {
		bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	}
	k.RunUntil(func() bool { return n == 10 }, 10000)
	if n != 10 {
		t.Fatalf("delivered %d/10 broadcasts", n)
	}
	if k.Now() < 80 {
		t.Errorf("10 broadcasts in %d cycles; serialisation should force >= 80", k.Now())
	}
}

func TestNewTorusPanics(t *testing.T) {
	assertPanics(t, "zero nodes", func() { NewTorus(0, 1, 0, sim.NewRand(1)) })
	assertPanics(t, "zero bandwidth", func() { NewTorus(2, 0, 0, sim.NewRand(1)) })
	assertPanics(t, "bcast zero nodes", func() { NewBroadcastTree(0, 1, 0, sim.NewRand(1)) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestClassString(t *testing.T) {
	if ClassCoherence.String() != "coherence" || ClassInform.String() != "inform" ||
		ClassSafetyNet.String() != "safetynet" || ClassReplay.String() != "replay" {
		t.Error("Class String() mismatch")
	}
}
