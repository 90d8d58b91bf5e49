package telemetry

import (
	"dvmc/internal/sim"
)

// Series is one time-series ring of DefaultSeriesCap (cycle, value)
// pairs for one slot of one tracked metric. Once full, the oldest sample
// is overwritten (flight-recorder semantics). The ring is allocated at the
// first sample, so a system whose sampler never runs holds none; push is
// allocation-free after that.
type Series struct {
	metric *Metric
	slot   int

	cycles []uint64 // nil until the first push
	vals   []int64
	head   int // index of the oldest sample
	count  int
}

func newSeries(m *Metric, slot int) *Series {
	return &Series{metric: m, slot: slot}
}

// push appends a sample, evicting the oldest when full.
func (s *Series) push(cycle uint64, v int64) {
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

// LabelValue returns the label value of the tracked slot ("" for
// scalars).
func (s *Series) LabelValue() string { return s.metric.LabelValue(s.slot) }

// Len returns the number of stored samples.
func (s *Series) Len() int { return s.count }

// Cap returns the ring capacity.
func (s *Series) Cap() int { return DefaultSeriesCap }

// At returns sample i in oldest-first order.
func (s *Series) At(i int) (cycle uint64, v int64) {
	j := (s.head + i) % DefaultSeriesCap
	return s.cycles[j], s.vals[j]
}

// Sampler drives periodic collection on the simulation kernel: every
// Every cycles it refreshes all probes and appends tracked values to
// their rings. Because it is clocked by the deterministic event kernel
// (never a wall clock), the resulting series are a pure function of
// (Config, Workload, Seed).
type Sampler struct {
	reg   *Registry
	every sim.Cycle
	taken uint64
	slot  sim.Slot // due at the next multiple of every
}

// NewSampler builds a sampler ticking reg every `every` cycles
// (DefaultEvery if zero or negative).
func NewSampler(reg *Registry, every sim.Cycle) *Sampler {
	if every <= 0 {
		every = DefaultEvery
	}
	return &Sampler{reg: reg, every: every}
}

// Tick implements sim.Clockable. Allocation-free in steady state.
func (sp *Sampler) Tick(now sim.Cycle) {
	into := now % sp.every
	if into == 0 {
		sp.reg.Collect()
		sp.reg.Sample(uint64(now))
		sp.taken++
	}
	sp.slot.SleepUntil(now - into + sp.every)
}

// Attach implements sim.Scheduled.
func (sp *Sampler) Attach(s sim.Slot) { sp.slot = s }

// Samples returns the number of sampling ticks taken so far.
func (sp *Sampler) Samples() uint64 { return sp.taken }

// Every returns the sampling period in cycles.
func (sp *Sampler) Every() sim.Cycle { return sp.every }
