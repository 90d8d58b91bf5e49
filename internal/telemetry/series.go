package telemetry

import (
	"dvmc/internal/sim"
)

// series is one time-series ring of DefaultSeriesCap (cycle, value)
// pairs for one slot of one tracked metric. Once full, the oldest sample
// is overwritten (flight-recorder semantics). The ring is allocated at the
// first sample, so a series that is never sampled holds none; push is
// allocation-free after that.
type series struct {
	metric *Metric
	slot   int

	cycles []uint64 // nil until the first push
	vals   []int64
	head   int // index of the oldest sample
	count  int
}

// push appends a sample, evicting the oldest when full.
func (s *series) push(cycle uint64, v int64) {
	if s.vals == nil {
		s.cycles, s.vals = make([]uint64, DefaultSeriesCap), make([]int64, DefaultSeriesCap)
	}
	if s.count < DefaultSeriesCap {
		i := (s.head + s.count) % DefaultSeriesCap
		s.cycles[i] = cycle
		s.vals[i] = v
		s.count++
		return
	}
	s.cycles[s.head] = cycle
	s.vals[s.head] = v
	s.head = (s.head + 1) % DefaultSeriesCap
}

// at returns sample i in oldest-first order.
func (s *series) at(i int) (cycle uint64, v int64) {
	j := (s.head + i) % DefaultSeriesCap
	return s.cycles[j], s.vals[j]
}

// Sampler records the tracked metrics on the simulation kernel: every
// `every` cycles it reads each tracked slot and appends the value to the
// slot's ring. Because it is clocked by the deterministic event kernel
// (never a wall clock), the resulting series are a pure function of
// (Config, Workload, Seed).
type Sampler struct {
	series []series // tracked metrics in name order, then slot order
	every  sim.Cycle
	slot   sim.Slot // due at the next multiple of every
}

// NewSampler builds a sampler for the tracked metrics of ms, ticking
// every `every` cycles (DefaultEvery if zero or negative). It sorts ms
// by name (panicking on a duplicate) and keeps it.
func NewSampler(ms []Metric, every sim.Cycle) *Sampler {
	if every <= 0 {
		every = DefaultEvery
	}
	sortByName(ms)
	sp := &Sampler{every: every}
	for i := range ms {
		if m := &ms[i]; m.Tracked {
			for slot := 0; slot < m.Len(); slot++ {
				sp.series = append(sp.series, series{metric: m, slot: slot})
			}
		}
	}
	return sp
}

// Tick implements sim.Clockable. Allocation-free in steady state.
func (sp *Sampler) Tick(now sim.Cycle) {
	into := now % sp.every
	if into == 0 {
		for i := range sp.series {
			s := &sp.series[i]
			s.push(uint64(now), s.metric.Read(s.slot))
		}
	}
	sp.slot.SleepUntil(now - into + sp.every)
}

// Attach implements sim.Scheduled.
func (sp *Sampler) Attach(s sim.Slot) { sp.slot = s }
