package safetynet

import (
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

func newTestManager(interval sim.Cycle, keep int) (*Manager, *[]sim.Cycle, *int) {
	captured := &[]sim.Cycle{}
	restored := new(int)
	m := NewManager(Config{Interval: interval, Keep: keep},
		func(now sim.Cycle) any { *captured = append(*captured, now); return int(now) },
		func(state any) { *restored = state.(int) })
	return m, captured, restored
}

func TestManagerTakesPeriodicCheckpoints(t *testing.T) {
	m, captured, _ := newTestManager(100, 3)
	var k sim.Kernel
	k.Register(m)
	k.Run(501)
	// Checkpoints at 0, 100, 200, 300, 400, 500 = 6 captures.
	if len(*captured) != 6 {
		t.Fatalf("captures = %d, want 6", len(*captured))
	}
	if live := m.Live(); len(live) != 3 {
		t.Errorf("live checkpoints = %d, want 3 (keep)", len(live))
	}
	if m.Stats().CheckpointsTaken != 6 {
		t.Errorf("CheckpointsTaken = %d", m.Stats().CheckpointsTaken)
	}
}

func TestManagerValidFor(t *testing.T) {
	m, _, _ := newTestManager(100, 3)
	var k sim.Kernel
	k.Register(m)
	k.Run(501) // live: 300, 400, 500
	if cp, ok := m.ValidFor(450); !ok || cp.Cycle != 400 {
		t.Errorf("ValidFor(450) = %v, %v; want cycle 400", cp, ok)
	}
	if cp, ok := m.ValidFor(500); !ok || cp.Cycle != 500 {
		t.Errorf("ValidFor(500) = %v, %v; want cycle 500", cp, ok)
	}
	if _, ok := m.ValidFor(250); ok {
		t.Error("ValidFor(250) found a checkpoint although all pre-error ones expired")
	}
}

func TestManagerRecover(t *testing.T) {
	m, _, restored := newTestManager(100, 3)
	var k sim.Kernel
	k.Register(m)
	k.Run(501)
	cp, ok := m.Recover(450)
	if !ok || cp.Cycle != 400 {
		t.Fatalf("Recover(450) = %v, %v", cp, ok)
	}
	if *restored != 400 {
		t.Errorf("restore got state %d, want 400", *restored)
	}
	// Checkpoints after the recovery point are dropped.
	for _, c := range m.Live() {
		if c.Cycle > 400 {
			t.Errorf("post-recovery checkpoint %d still live", c.Cycle)
		}
	}
	if m.Stats().Recoveries != 1 {
		t.Errorf("Recoveries = %d", m.Stats().Recoveries)
	}
}

func TestManagerRecoverImpossibleAfterExpiry(t *testing.T) {
	m, _, _ := newTestManager(100, 2)
	var k sim.Kernel
	k.Register(m)
	k.Run(1001) // live: 900, 1000
	if _, ok := m.Recover(800); ok {
		t.Error("recovered from an error older than the window")
	}
}

func TestConfigWindow(t *testing.T) {
	c := Config{Interval: 25000, Keep: 4}
	if c.Window() != 100000 {
		t.Errorf("Window = %d, want 100000", c.Window())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDefaultConfigMatchesPaperWindow(t *testing.T) {
	if w := DefaultConfig().Window(); w != 100000 {
		t.Errorf("default window = %d, want ~100k cycles", w)
	}
}

type captureNet struct {
	msgs []*network.Message
}

func (c *captureNet) Send(m *network.Message) { c.msgs = append(c.msgs, m) }

func TestLoggerEmitsOncePerIntervalPerBlock(t *testing.T) {
	m, _, _ := newTestManager(100, 2)
	net := &captureNet{}
	lg := NewLogger(1, func(b mem.BlockAddr) network.NodeID { return network.NodeID(uint64(b) % 4) }, net, m)
	lg.Tick(1)
	lg.Access(0x10, true)
	lg.Access(0x10, true) // duplicate within interval: no traffic
	lg.Access(0x20, true)
	lg.Access(0x30, false) // read: no traffic
	if len(net.msgs) != 2 {
		t.Fatalf("log messages = %d, want 2", len(net.msgs))
	}
	if net.msgs[0].Class != network.ClassSafetyNet {
		t.Errorf("class = %v", net.msgs[0].Class)
	}
	// New interval: the same block logs again.
	lg.Tick(150)
	lg.Access(0x10, true)
	if len(net.msgs) != 3 {
		t.Errorf("log messages after new interval = %d, want 3", len(net.msgs))
	}
	if m.Stats().LogMessages != 3 || m.Stats().LogBytes != 3*16 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestLoggerRoutesToHome(t *testing.T) {
	m, _, _ := newTestManager(100, 2)
	net := &captureNet{}
	lg := NewLogger(2, func(b mem.BlockAddr) network.NodeID { return network.NodeID(uint64(b) % 4) }, net, m)
	lg.Access(mem.BlockAddr(7), true)
	if len(net.msgs) != 1 || net.msgs[0].Dst != 3 {
		t.Fatalf("log routed to %v, want home 3", net.msgs)
	}
	if net.msgs[0].Src != 2 {
		t.Errorf("src = %d, want 2", net.msgs[0].Src)
	}
}

func TestNewManagerPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config did not panic")
		}
	}()
	NewManager(Config{}, nil, nil)
}

// TestIntervalBoundariesExact: the manager checkpoints on the multiples
// of the interval and nowhere else, also when its first tick falls inside
// an interval, and the logger forgets its logged set on the boundary
// cycle itself.
func TestIntervalBoundariesExact(t *testing.T) {
	m, captured, _ := newTestManager(100, 3)
	net := &captureNet{}
	lg := NewLogger(0, func(mem.BlockAddr) network.NodeID { return 0 }, net, m)
	for now := sim.Cycle(150); now <= 400; now++ {
		m.Tick(now)
		lg.Tick(now)
		lg.Access(0x10, true)
	}
	if want := []sim.Cycle{200, 300, 400}; len(*captured) != 3 || (*captured)[0] != want[0] || (*captured)[2] != want[2] {
		t.Fatalf("checkpoints at %v, want %v", *captured, want)
	}
	// One log record in the interval the run starts in, one on each
	// boundary cycle after.
	if len(net.msgs) != 4 {
		t.Fatalf("%d log messages over cycles 150..400, want 4", len(net.msgs))
	}
}

// TestIdleTickSteadyStateAllocFree: between boundaries neither tick
// allocates, and the logger keeps its map across intervals.
func TestIdleTickSteadyStateAllocFree(t *testing.T) {
	m, _, _ := newTestManager(1_000_000, 2)
	lg := NewLogger(0, func(mem.BlockAddr) network.NodeID { return 0 }, &captureNet{}, m)
	now := sim.Cycle(0)
	m.Tick(now) // the checkpoint at cycle 0
	if allocs := testing.AllocsPerRun(1000, func() {
		now++
		m.Tick(now)
		lg.Tick(now)
	}); allocs != 0 {
		t.Errorf("idle safetynet ticks: %.2f allocs/op, want 0", allocs)
	}
	lg.Access(0x10, true)
	if allocs := testing.AllocsPerRun(10, func() {
		now += 1_000_000
		lg.Tick(now)
	}); allocs != 0 {
		t.Errorf("logger interval rollover: %.2f allocs/op, want 0", allocs)
	}
}

// TestManagerReleasesEveryCheckpointOnce drives 200 intervals with
// recoveries at pseudo-random points — two of them back to back, with no
// checkpoint between — and follows every captured state: it is either
// still live or was released exactly once, and is never restored after.
func TestManagerReleasesEveryCheckpointOnce(t *testing.T) {
	const interval, keep = 50, 4
	type state struct{ released int }
	var captured []*state
	var m *Manager
	m = NewManager(Config{Interval: interval, Keep: keep},
		func(sim.Cycle) any {
			st := &state{}
			captured = append(captured, st)
			return st
		},
		func(s any) {
			if st := s.(*state); st.released != 0 {
				t.Fatalf("restore of a state released %d times", st.released)
			}
		})
	m.SetReleaseFunc(func(s any) { s.(*state).released++ })

	check := func(when string) {
		t.Helper()
		live := map[*state]bool{}
		for _, cp := range m.Live() {
			live[cp.State.(*state)] = true
		}
		if len(live) > keep {
			t.Fatalf("%s: %d live checkpoints, keep is %d", when, len(live), keep)
		}
		for i, st := range captured {
			want := 1
			if live[st] {
				want = 0
			}
			if st.released != want {
				t.Fatalf("%s: state %d (live=%v) released %d times", when, i, live[st], st.released)
			}
		}
		// No released state stays reachable through the slice's spare capacity.
		for _, cp := range m.live[len(m.live):cap(m.live)] {
			if cp.State != nil {
				t.Fatalf("%s: a vacated slot still holds its state", when)
			}
		}
	}

	rng := sim.NewRand(5)
	recoveries, nested := 0, 0
	for now := sim.Cycle(0); now < 200*interval; now++ {
		m.Tick(now)
		check("tick")
		if now > interval && rng.Intn(3*interval) == 0 {
			// Anywhere in the recovery window, so some recoveries squash
			// several newer checkpoints and some none.
			back := sim.Cycle(rng.Intn(keep * interval))
			if back > now {
				back = now
			}
			if _, ok := m.Recover(now - back); ok {
				recoveries++
			}
			check("recover")
			if rng.Intn(4) == 0 {
				if _, ok := m.Recover(now - back/2); ok {
					recoveries++
					nested++
				}
				check("nested recover")
			}
		}
	}
	if recoveries < 20 || nested < 2 || m.Stats().NestedRecoveries < 2 {
		t.Errorf("%d recoveries, %d back to back (manager counted %d nested): the schedule lost its coverage",
			recoveries, nested, m.Stats().NestedRecoveries)
	}
	if len(captured) != 200 {
		t.Errorf("%d checkpoints captured, want 200", len(captured))
	}
}
