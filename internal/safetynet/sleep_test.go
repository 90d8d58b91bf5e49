package safetynet

import (
	"reflect"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// alwaysDue keeps the Slot of the twin it wraps; the twin test wakes it
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

// snView is what a manager and its logger show the rest of a system.
type snView struct {
	Captured []sim.Cycle
	Live     int
	Stats    Stats
	Logged   int
	Msgs     int
}

// TestManagerAndLoggerTwins runs a manager and a logger called only on
// their published due cycles (the interval boundaries) beside twins the
// kernel calls every cycle, under the same writes and recoveries; what
// they captured, keep and logged agrees after every cycle.
func TestManagerAndLoggerTwins(t *testing.T) {
	const interval = 70
	var (
		ks       [2]*sim.Kernel
		ms       [2]*Manager
		lgs      [2]*Logger
		nets     [2]*captureNet
		captured [2]*[]sim.Cycle
		always   []*alwaysDue
		calls    []*counting
	)
	for i := range ks {
		ks[i] = sim.NewKernel(2)
		ms[i], captured[i], _ = newTestManager(interval, 3)
		nets[i] = &captureNet{}
		lgs[i] = NewLogger(1, func(b mem.BlockAddr) network.NodeID { return network.NodeID(uint64(b) % 4) }, nets[i], ms[i])
		for _, c := range []sim.Scheduled{ms[i], lgs[i]} {
			if i == 0 {
				cc := &counting{Scheduled: c}
				calls = append(calls, cc)
				ks[i].Register(cc)
			} else {
				a := &alwaysDue{Scheduled: c}
				always = append(always, a)
				ks[i].Register(a)
			}
		}
	}
	view := func(i int) snView {
		return snView{append([]sim.Cycle(nil), *captured[i]...), ms[i].LiveCount(), ms[i].Stats(),
			len(lgs[i].logged), len(nets[i].msgs)}
	}
	rng := sim.NewRand(3)
	const cycles = 3000
	for c := 0; c < cycles; c++ {
		if rng.Intn(4) == 0 {
			b := mem.BlockAddr(rng.Intn(12))
			for _, lg := range lgs {
				lg.Access(b, true)
			}
		}
		if now := ks[0].Now(); now > interval && rng.Intn(400) == 0 {
			back := sim.Cycle(rng.Intn(3 * interval))
			for _, m := range ms {
				m.Recover(now - min(back, now))
			}
		}
		for _, a := range always {
			a.slot.Wake()
		}
		for _, k := range ks {
			k.Step()
		}
		if a, b := view(0), view(1); !reflect.DeepEqual(a, b) {
			t.Fatalf("cycle %d: the manager and logger diverged from their twins\n sleeping %+v\n twin     %+v", c, a, b)
		}
	}
	if ms[0].Stats().Recoveries == 0 || len(*captured[0]) != cycles/interval+1 {
		t.Fatalf("the run did not exercise checkpoints and recoveries: %+v", view(0))
	}
	for _, cc := range calls {
		if cc.calls > cycles/interval+1 {
			t.Fatalf("called on %d of %d cycles, want only the interval boundaries", cc.calls, cycles)
		}
	}
}
