package network

import (
	"reflect"
	"testing"

	"dvmc/internal/sim"
)

// alwaysDue keeps the Slot of the twin it wraps; the twin tests wake it
// before every Step, so the kernel calls the twin every cycle.
type alwaysDue struct {
	sim.Scheduled
	slot sim.Slot
}

func (a *alwaysDue) Attach(s sim.Slot) {
	a.slot = s
	a.Scheduled.Attach(s)
}

// counting counts the kernel's calls to the component it wraps.
type counting struct {
	sim.Scheduled
	calls int
}

func (c *counting) Tick(now sim.Cycle) {
	c.calls++
	c.Scheduled.Tick(now)
}

// twinNet is what a twin test drives of a network; the torus and the
// broadcast tree both offer it.
type twinNet interface {
	sim.Scheduled
	Send(m *Message)
	SetHandler(n NodeID, h Handler)
	LinkStats() []LinkStat
}

// delivery is one handler invocation as a network twin test records it.
type delivery struct {
	At  sim.Cycle
	Dst NodeID
	ID  int
}

// netTwins drives two identical networks with the same traffic, each
// registered in a kernel of its own, the kernels stepped in lockstep. The
// first is called only when the due cycle it published comes, as in a
// system. The twin's slot is woken before every Step, and for a torus
// every link is marked due as well, so the twin walks all of its links
// every cycle. Deliveries and link statistics must agree after every
// cycle.
type netTwins struct {
	t      *testing.T
	ks     [2]*sim.Kernel
	nets   [2]twinNet
	logs   [2][]delivery
	sleepy *counting
	always *alwaysDue
	// reply, if set, lets a delivery handler answer from inside Tick.
	reply func(m *Message) *Message
}

func newNetTwins(t *testing.T, nodes int, build func() twinNet) *netTwins {
	tw := &netTwins{t: t}
	for i := range tw.nets {
		i := i
		net := build()
		k := sim.NewKernel(1)
		for n := 0; n < nodes; n++ {
			net.SetHandler(NodeID(n), func(m *Message) {
				tw.logs[i] = append(tw.logs[i], delivery{At: k.Now(), Dst: NodeID(n), ID: m.Payload.(int)})
				if tw.reply != nil {
					if r := tw.reply(m); r != nil {
						net.Send(r)
					}
				}
			})
		}
		if i == 0 {
			tw.sleepy = &counting{Scheduled: net}
			k.Register(tw.sleepy)
		} else {
			tw.always = &alwaysDue{Scheduled: net}
			k.Register(tw.always)
		}
		tw.ks[i], tw.nets[i] = k, net
	}
	return tw
}

func newTorusTwins(t *testing.T, nodes int) *netTwins {
	return newNetTwins(t, nodes, func() twinNet { return NewTorus(nodes, 1.25, 15, sim.NewRand(3)) })
}

func (tw *netTwins) both(fn func(net twinNet)) {
	for _, net := range tw.nets {
		fn(net)
	}
}

func (tw *netTwins) tor(i int) *Torus { return tw.nets[i].(*Torus) }

func (tw *netTwins) send(src, dst NodeID, size int, class Class, id int) {
	tw.both(func(net twinNet) {
		net.Send(&Message{Src: src, Dst: dst, Size: size, Class: class, Payload: id})
	})
}

// skipped is how many cycles the kernel did not call the first network.
func (tw *netTwins) skipped() int { return int(tw.ks[0].Now()) - tw.sleepy.calls }

func (tw *netTwins) step() {
	tw.t.Helper()
	if twin, ok := tw.nets[1].(*Torus); ok {
		twin.wakeAt = 0
		for i := range twin.dueAt {
			twin.dueAt[i] = 0
		}
	}
	tw.always.slot.Wake()
	for _, k := range tw.ks {
		k.Step()
	}
	now := tw.ks[0].Now() - 1
	if !reflect.DeepEqual(tw.logs[0], tw.logs[1]) {
		tw.t.Fatalf("cycle %d: deliveries diverged\n skipping %v\n twin     %v", now, tail(tw.logs[0]), tail(tw.logs[1]))
	}
	if a, b := tw.nets[0].LinkStats(), tw.nets[1].LinkStats(); !reflect.DeepEqual(a, b) {
		tw.t.Fatalf("cycle %d: link statistics diverged\n skipping %v\n twin     %v", now, a, b)
	}
}

func tail(l []delivery) []delivery { return l[max(0, len(l)-4):] }

func (tw *netTwins) run(cycles int) {
	tw.t.Helper()
	for i := 0; i < cycles; i++ {
		tw.step()
	}
}

// TestTorusSendIntoIdleNetwork: after a long idle stretch a message, and
// the reply its delivery handler sends from inside Tick, arrive on the
// cycles they would with every link visited every cycle.
func TestTorusSendIntoIdleNetwork(t *testing.T) {
	tw := newTorusTwins(t, 8)
	tw.reply = func(m *Message) *Message {
		if id := m.Payload.(int); id < 100 {
			return &Message{Src: m.Dst, Dst: m.Src, Size: 72, Class: ClassCoherence, Payload: id + 100}
		}
		return nil
	}
	tw.run(500)
	if s := tw.skipped(); s != 499 {
		t.Fatalf("an idle torus was called on %d of 500 cycles, want only the first", 500-s)
	}
	tw.send(0, 5, 8, ClassCoherence, 1)
	tw.run(400)
	tw.send(6, 1, 72, ClassInform, 2)
	tw.send(6, 1, 8, ClassCoherence, 3) // overtakes the inform at the first link
	tw.run(600)
	if got := len(tw.logs[0]); got != 6 {
		t.Fatalf("%d deliveries, want 3 messages and 3 replies: %v", got, tw.logs[0])
	}
	if obs := tw.nets[0].LinkStats()[0].Observed; obs != 1500 {
		t.Fatalf("Observed = %d after 1500 cycles", obs)
	}
	if s := tw.skipped(); s < 1300 {
		t.Fatalf("the torus was skipped on only %d of 1500 cycles", s)
	}
}

// TestTorusFaultHoldBurstRelease: a held burst re-enters newest first,
// once when the hook disarms and once when the window expires.
func TestTorusFaultHoldBurstRelease(t *testing.T) {
	tw := newTorusTwins(t, 8)
	for round, disarm := range []bool{true, false} {
		for i := range tw.nets {
			tor := tw.tor(i)
			held := 0
			tor.SetFaultWindow(90)
			tor.SetFaultHook(func(m *Message) FaultAction {
				if held == 3 {
					return FaultNone
				}
				held++
				if held == 3 && disarm {
					tor.SetFaultHook(nil)
				}
				return FaultHold
			})
		}
		for i := 0; i < 4; i++ {
			tw.send(2, 7, 8, ClassCoherence, 10*round+i)
			tw.run(3)
		}
		tw.run(400)
		tw.tor(0).SetFaultHook(nil)
		tw.tor(1).SetFaultHook(nil)
	}
	var order []int
	for _, d := range tw.logs[0] {
		order = append(order, d.ID)
	}
	// Per round: the unheld fourth message first (round 1: it was sent
	// while the burst still waited out its window), the burst reversed.
	if want := []int{2, 1, 0, 3, 13, 12, 11, 10}; !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
	if tw.skipped() == 0 {
		t.Fatal("the torus was never skipped")
	}
}

// TestTorusResetMidFlight: Reset with transits on links and in queues
// leaves nothing due, and the network carries traffic afterwards.
func TestTorusResetMidFlight(t *testing.T) {
	tw := newTorusTwins(t, 8)
	for i := 0; i < 12; i++ {
		tw.send(NodeID(i%8), NodeID((i+3)%8), 72, ClassCoherence, i)
	}
	tw.run(40) // first hops serialising, queues behind them
	tw.both(func(net twinNet) { net.(*Torus).Reset() })
	tw.run(300)
	if len(tw.logs[0]) != 0 {
		t.Fatalf("%d messages survived Reset", len(tw.logs[0]))
	}
	if tw.tor(0).wakeAt != sim.Never {
		t.Fatalf("torus still expects work at cycle %d after Reset", tw.tor(0).wakeAt)
	}
	skipped := tw.skipped()
	tw.send(1, 6, 72, ClassCoherence, 99)
	tw.run(400)
	if len(tw.logs[0]) != 1 {
		t.Fatalf("post-reset delivery failed: %v", tw.logs[0])
	}
	if tw.skipped() == skipped {
		t.Fatal("the torus was not skipped after Reset")
	}
}

// TestTorusTwinsUnderRandomTraffic mixes classes, sizes, loopbacks and
// handler replies so links fall due ahead of and behind the walk.
func TestTorusTwinsUnderRandomTraffic(t *testing.T) {
	tw := newTorusTwins(t, 8)
	rng := sim.NewRand(17)
	tw.reply = func(m *Message) *Message {
		if id := m.Payload.(int); id%3 == 0 && id < 1_000_000 {
			return &Message{Src: m.Dst, Dst: NodeID((int(m.Src) + id) % 8), Size: 72, Class: ClassCoherence, Payload: id + 1_000_000}
		}
		return nil
	}
	classes := []Class{ClassCoherence, ClassCoherence, ClassInform, ClassSafetyNet, ClassReplay}
	for id := 0; id < 1500; id++ {
		if rng.Intn(3) == 0 {
			tw.run(rng.Intn(40)) // quiet stretches long enough to drain
		}
		size := 8
		if rng.Intn(2) == 0 {
			size = 72
		}
		tw.send(NodeID(rng.Intn(8)), NodeID(rng.Intn(8)), size, classes[rng.Intn(len(classes))], id)
		tw.step()
	}
	tw.run(2000)
	if got := len(tw.logs[0]); got != 2000 {
		t.Fatalf("%d deliveries, want 1500 messages and 500 replies", got)
	}
	if tw.skipped() == 0 {
		t.Fatal("the torus was never skipped")
	}
}

// TestBroadcastTreeObservedIsTickCount: a tree called only on its due
// cycles delivers what one called every cycle does, idle, busy with a
// queued burst and across a Reset; the root link's observation time is
// the cycle count either way, and a broadcast into an idle tree takes
// what the first one took.
func TestBroadcastTreeObservedIsTickCount(t *testing.T) {
	tw := newNetTwins(t, 4, func() twinNet { return NewBroadcastTree(4, 1.25, 6, sim.NewRand(1)) })
	tw.run(1)
	tw.send(0, 0, 8, ClassCoherence, 1)
	tw.run(300)
	tw.send(1, 1, 8, ClassCoherence, 2)
	tw.run(2) // arbitrated and in flight
	tw.both(func(net twinNet) { net.(*BroadcastTree).Reset() })
	tw.run(300)
	tw.send(2, 2, 8, ClassCoherence, 3)
	tw.run(300)
	at := tw.logs[0]
	if len(at) != 8 {
		t.Fatalf("%d snoops, want two broadcasts at four nodes (the one in flight at Reset is dropped)", len(at))
	}
	if first, third := at[0].At-1, at[4].At-603; first != third {
		t.Fatalf("broadcast latency %d into the idle tree at cycle 603, %d at cycle 1", third, first)
	}
	if obs := tw.nets[0].LinkStats()[0].Observed; obs != 903 {
		t.Fatalf("Observed = %d after 903 cycles", obs)
	}
	// A burst queues behind the arbiter and is snooped in send order.
	for id := 10; id < 16; id++ {
		tw.send(NodeID(id%4), NodeID(id%4), 8+8*(id%3), ClassCoherence, id)
	}
	tw.run(200)
	if got := len(tw.logs[0]); got != 8+6*4 {
		t.Fatalf("%d snoops after the burst, want %d", got, 8+6*4)
	}
	for i, d := range tw.logs[0][8:] {
		if want := 10 + i/4; d.ID != want {
			t.Fatalf("snoop %d of the burst is broadcast %d, want %d", i, d.ID, want)
		}
	}
	if s := tw.skipped(); s < 1000 {
		t.Fatalf("the tree was skipped on only %d of %d cycles", s, tw.ks[0].Now())
	}
}

// TestIdleTickSteadyStateAllocFree: a tick of an empty network allocates
// nothing.
func TestIdleTickSteadyStateAllocFree(t *testing.T) {
	tor, _ := torusBench()
	bt := NewBroadcastTree(4, 1.25, 6, sim.NewRand(1))
	now := sim.Cycle(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		tor.Tick(now)
		bt.Tick(now)
		now++
	}); allocs != 0 {
		t.Errorf("idle network ticks: %.2f allocs/op, want 0", allocs)
	}
}
