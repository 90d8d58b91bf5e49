package network

import (
	"reflect"
	"testing"

	"dvmc/internal/sim"
)

// delivery is one handler invocation as a torus twin test records it.
type delivery struct {
	At  sim.Cycle
	Dst NodeID
	ID  int
}

// torusTwins drives two identical toruses with the same traffic. The
// first skips links as it does in a system; before every tick the twin
// has every link marked due, so its walk visits all of them, every
// cycle, as the torus did before links could be skipped. Deliveries and
// link statistics must agree after every cycle.
type torusTwins struct {
	t    *testing.T
	tors [2]*Torus
	logs [2][]delivery
	now  sim.Cycle
	// reply, if set, lets a delivery handler answer from inside Tick.
	reply func(m *Message) *Message
	// skipped counts ticks on which the first torus walked no link.
	skipped int
}

func newTorusTwins(t *testing.T, nodes int) *torusTwins {
	tw := &torusTwins{t: t}
	for i := range tw.tors {
		i := i
		tor := NewTorus(nodes, 1.25, 15, sim.NewRand(3))
		for n := 0; n < nodes; n++ {
			tor.SetHandler(NodeID(n), func(m *Message) {
				tw.logs[i] = append(tw.logs[i], delivery{At: tw.now, Dst: m.Dst, ID: m.Payload.(int)})
				if tw.reply != nil {
					if r := tw.reply(m); r != nil {
						tor.Send(r)
					}
				}
			})
		}
		tw.tors[i] = tor
	}
	return tw
}

func (tw *torusTwins) both(fn func(tor *Torus)) {
	for _, tor := range tw.tors {
		fn(tor)
	}
}

func (tw *torusTwins) send(src, dst NodeID, size int, class Class, id int) {
	tw.both(func(tor *Torus) {
		tor.Send(&Message{Src: src, Dst: dst, Size: size, Class: class, Payload: id})
	})
}

func (tw *torusTwins) step() {
	tw.t.Helper()
	if tw.now < tw.tors[0].wakeAt {
		tw.skipped++
	}
	tw.tors[0].Tick(tw.now)
	twin := tw.tors[1]
	twin.wakeAt = 0
	for i := range twin.dueAt {
		twin.dueAt[i] = 0
	}
	twin.Tick(tw.now)
	if !reflect.DeepEqual(tw.logs[0], tw.logs[1]) {
		tw.t.Fatalf("cycle %d: deliveries diverged\n skipping %v\n twin     %v", tw.now, tail(tw.logs[0]), tail(tw.logs[1]))
	}
	if a, b := tw.tors[0].LinkStats(), tw.tors[1].LinkStats(); !reflect.DeepEqual(a, b) {
		tw.t.Fatalf("cycle %d: link statistics diverged\n skipping %v\n twin     %v", tw.now, a, b)
	}
	tw.now++
}

func tail(l []delivery) []delivery { return l[max(0, len(l)-4):] }

func (tw *torusTwins) run(cycles int) {
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
	if tw.skipped != 500 {
		t.Fatalf("idle torus walked its links on %d of 500 ticks", 500-tw.skipped)
	}
	tw.send(0, 5, 8, ClassCoherence, 1)
	tw.run(400)
	tw.send(6, 1, 72, ClassInform, 2)
	tw.send(6, 1, 8, ClassCoherence, 3) // overtakes the inform at the first link
	tw.run(600)
	if got := len(tw.logs[0]); got != 6 {
		t.Fatalf("%d deliveries, want 3 messages and 3 replies: %v", got, tw.logs[0])
	}
	if obs := tw.tors[0].LinkStats()[0].Observed; obs != 1500 {
		t.Fatalf("Observed = %d after 1500 ticks", obs)
	}
}

// TestTorusFaultHoldBurstRelease: a held burst re-enters newest first,
// once when the hook disarms and once when the window expires.
func TestTorusFaultHoldBurstRelease(t *testing.T) {
	tw := newTorusTwins(t, 8)
	for round, disarm := range []bool{true, false} {
		tw.both(func(tor *Torus) {
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
		})
		for i := 0; i < 4; i++ {
			tw.send(2, 7, 8, ClassCoherence, 10*round+i)
			tw.run(3)
		}
		tw.run(400)
		tw.both(func(tor *Torus) { tor.SetFaultHook(nil) })
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
}

// TestTorusResetMidFlight: Reset with transits on links and in queues
// leaves nothing due, and the network carries traffic afterwards.
func TestTorusResetMidFlight(t *testing.T) {
	tw := newTorusTwins(t, 8)
	for i := 0; i < 12; i++ {
		tw.send(NodeID(i%8), NodeID((i+3)%8), 72, ClassCoherence, i)
	}
	tw.run(40) // first hops serialising, queues behind them
	tw.both(func(tor *Torus) { tor.Reset() })
	tw.run(300)
	if len(tw.logs[0]) != 0 {
		t.Fatalf("%d messages survived Reset", len(tw.logs[0]))
	}
	if tw.tors[0].wakeAt != never {
		t.Fatalf("torus still expects work at cycle %d after Reset", tw.tors[0].wakeAt)
	}
	tw.send(1, 6, 72, ClassCoherence, 99)
	tw.run(400)
	if len(tw.logs[0]) != 1 {
		t.Fatalf("post-reset delivery failed: %v", tw.logs[0])
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
	if tw.skipped == 0 {
		t.Fatal("the torus never skipped its walk")
	}
}

// TestBroadcastTreeObservedIsTickCount: the root link's observation time
// is the number of ticks, idle, busy or across a Reset, and a broadcast
// into an idle tree takes what the first one took.
func TestBroadcastTreeObservedIsTickCount(t *testing.T) {
	bt := NewBroadcastTree(4, 1.25, 6, sim.NewRand(1))
	var at []sim.Cycle
	now := sim.Cycle(0)
	for n := 0; n < 4; n++ {
		bt.SetHandler(NodeID(n), func(*Message) { at = append(at, now) })
	}
	run := func(cycles int) {
		for i := 0; i < cycles; i++ {
			bt.Tick(now)
			now++
		}
	}
	run(1)
	bt.Send(&Message{Src: 0, Size: 8, Class: ClassCoherence})
	run(300)
	bt.Send(&Message{Src: 1, Size: 8, Class: ClassCoherence})
	run(2) // arbitrated and in flight
	bt.Reset()
	run(300)
	bt.Send(&Message{Src: 2, Size: 8, Class: ClassCoherence})
	run(300)
	if len(at) != 8 {
		t.Fatalf("%d snoops, want two broadcasts at four nodes (the one in flight at Reset is dropped)", len(at))
	}
	if first, third := at[0]-1, at[4]-603; first != third {
		t.Fatalf("broadcast latency %d into the idle tree at cycle 603, %d at cycle 1", third, first)
	}
	if obs := bt.LinkStats()[0].Observed; obs != 903 {
		t.Fatalf("Observed = %d after 903 ticks", obs)
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
