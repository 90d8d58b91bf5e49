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
		sps    [2]*Sampler
		reads  [2]int
		always *alwaysDue
		calls  *counting
	)
	for i := range ks {
		ks[i] = sim.NewKernel(1)
		k := ks[i]
		sps[i] = NewSampler([]Metric{{Name: "g", Help: "a gauge that changes every cycle", Kind: KindGauge, Tracked: true,
			Read: func(int) int64 {
				reads[i]++
				return int64(k.Now()) * 3
			}}}, every)
		if i == 0 {
			calls = &counting{Scheduled: sps[i]}
			k.Register(calls)
		} else {
			always = &alwaysDue{Scheduled: sps[i]}
			k.Register(always)
		}
	}
	samples := func(i int) [][2]int64 {
		s := &sps[i].series[0]
		out := make([][2]int64, s.count)
		for j := range out {
			c, v := s.at(j)
			out[j] = [2]int64{int64(c), v}
		}
		return out
	}
	for c := 0; c < cycles; c++ {
		always.slot.Wake()
		for _, k := range ks {
			k.Step()
		}
		if reads[0] != reads[1] || !reflect.DeepEqual(samples(0), samples(1)) {
			t.Fatalf("cycle %d: the sampler diverged from its twin\n sleeping %v\n twin     %v", c, samples(0), samples(1))
		}
	}
	if want := (cycles + every - 1) / every; reads[0] != want || calls.calls != want {
		t.Fatalf("%d samples in %d calls over %d cycles, want %d of each", reads[0], calls.calls, cycles, want)
	}
}
