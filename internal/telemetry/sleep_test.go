package telemetry

import (
	"reflect"
	"testing"

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

// TestSamplerTwins: a sampler called only on the multiples of its period
// records the series one called every cycle does, from a gauge that
// changes every cycle, past the point where its ring wraps.
func TestSamplerTwins(t *testing.T) {
	const every = 7
	const cycles = every * (DefaultSeriesCap + 16)
	var (
		ks     [2]*sim.Kernel
		regs   [2]*Registry
		sps    [2]*Sampler
		gauges [2]*Metric
		always *alwaysDue
		calls  *counting
	)
	for i := range ks {
		ks[i] = sim.NewKernel(1)
		regs[i] = NewRegistry()
		gauges[i] = regs[i].Track(regs[i].Gauge("g", "a gauge set every cycle"))
		k := ks[i]
		g := gauges[i]
		regs[i].AddProbe(func() { g.Set(0, int64(k.Now())*3) })
		sps[i] = NewSampler(regs[i], every)
		if i == 0 {
			calls = &counting{Scheduled: sps[i]}
			k.Register(calls)
		} else {
			always = &alwaysDue{Scheduled: sps[i]}
			k.Register(always)
		}
	}
	samples := func(i int) [][2]int64 {
		s := regs[i].Series()[0]
		out := make([][2]int64, s.Len())
		for j := range out {
			c, v := s.At(j)
			out[j] = [2]int64{int64(c), v}
		}
		return out
	}
	for c := 0; c < cycles; c++ {
		always.slot.Wake()
		for _, k := range ks {
			k.Step()
		}
		if sps[0].Samples() != sps[1].Samples() || !reflect.DeepEqual(samples(0), samples(1)) {
			t.Fatalf("cycle %d: the sampler diverged from its twin\n sleeping %v\n twin     %v", c, samples(0), samples(1))
		}
	}
	if want := uint64(cycles+every-1) / every; sps[0].Samples() != want || calls.calls != int(want) {
		t.Fatalf("%d samples in %d calls over %d cycles, want %d of each", sps[0].Samples(), calls.calls, cycles, want)
	}
}
