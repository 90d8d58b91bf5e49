package telemetry

import (
	"fmt"
	"sort"
)

// Kind classifies a metric.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing total.
	KindCounter Kind = iota + 1
	// KindGauge is a point-in-time level (queue depth, occupancy).
	KindGauge
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Metric is one named quantity: a scalar (no label) or a small fixed
// vector (one value per label value, e.g. per node or per traffic
// class). Label values are resolved at registration time so the update
// path is a bounds-checked slice write — no map lookups, no formatting,
// no allocation.
type Metric struct {
	name      string
	help      string
	kind      Kind
	label     string   // label key; "" for scalars
	labelVals []string // one per slot; nil for scalars
	vals      []int64
}

// Name returns the metric name.
func (m *Metric) Name() string { return m.name }

// Help returns the metric description.
func (m *Metric) Help() string { return m.help }

// Kind returns the metric kind.
func (m *Metric) Kind() Kind { return m.kind }

// Label returns the label key ("" for scalars).
func (m *Metric) Label() string { return m.label }

// LabelValue returns the label value of slot i ("" for scalars).
func (m *Metric) LabelValue(i int) string {
	if m.labelVals == nil {
		return ""
	}
	return m.labelVals[i]
}

// Len returns the number of slots (1 for scalars).
func (m *Metric) Len() int { return len(m.vals) }

// Set stores v in slot i.
func (m *Metric) Set(i int, v int64) { m.vals[i] = v }

// Add adds v to slot i.
func (m *Metric) Add(i int, v int64) { m.vals[i] += v }

// Inc increments slot i.
func (m *Metric) Inc(i int) { m.vals[i]++ }

// Value returns slot i.
func (m *Metric) Value(i int) int64 { return m.vals[i] }

// Total returns the sum over all slots.
func (m *Metric) Total() int64 {
	var t int64
	for _, v := range m.vals {
		t += v
	}
	return t
}

// Registry is the central metric table for one simulated system. It is
// single-threaded, like the simulator it instruments: all updates happen
// on the simulation goroutine. Concurrent readers (the live /metrics
// endpoint) must synchronise externally at the cmd layer.
type Registry struct {
	metrics []*Metric
	byName  map[string]*Metric

	// probes refresh gauge/counter values from the live structures they
	// shadow; Collect runs them in registration order.
	probes []func()

	// tracked metrics get one time-series ring per slot, appended by
	// Sample.
	tracked []*Metric
	series  []*Series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Metric)}
}

// register adds a metric, panicking on duplicate names (a wiring bug).
func (r *Registry) register(m *Metric) *Metric {
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers a scalar counter.
func (r *Registry) Counter(name, help string) *Metric {
	return r.register(&Metric{name: name, help: help, kind: KindCounter, vals: make([]int64, 1)})
}

// Gauge registers a scalar gauge.
func (r *Registry) Gauge(name, help string) *Metric {
	return r.register(&Metric{name: name, help: help, kind: KindGauge, vals: make([]int64, 1)})
}

// CounterVec registers a labelled counter with fixed label values.
func (r *Registry) CounterVec(name, help, label string, labelVals []string) *Metric {
	return r.register(&Metric{name: name, help: help, kind: KindCounter,
		label: label, labelVals: labelVals, vals: make([]int64, len(labelVals))})
}

// GaugeVec registers a labelled gauge with fixed label values.
func (r *Registry) GaugeVec(name, help, label string, labelVals []string) *Metric {
	return r.register(&Metric{name: name, help: help, kind: KindGauge,
		label: label, labelVals: labelVals, vals: make([]int64, len(labelVals))})
}

// Lookup returns a registered metric by name (nil if absent).
func (r *Registry) Lookup(name string) *Metric { return r.byName[name] }

// Metrics returns the registered metrics sorted by name (encoders and
// tests; registration order is assembly-defined, sorted order is the
// stable public view).
func (r *Registry) Metrics() []*Metric {
	out := append([]*Metric(nil), r.metrics...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// AddProbe registers a refresh function run by Collect (and by every
// sampler tick) to bring shadowed values up to date. Probes must not
// allocate in steady state.
func (r *Registry) AddProbe(fn func()) { r.probes = append(r.probes, fn) }

// Collect refreshes all probed values. Call before reading or encoding
// the registry outside a sampler tick.
func (r *Registry) Collect() {
	for _, p := range r.probes {
		p()
	}
}

// Track gives each slot of m a time-series ring, allocated at its first
// sample; each Sample call appends the slot's current value. Returns m
// for chaining.
func (r *Registry) Track(m *Metric) *Metric {
	r.tracked = append(r.tracked, m)
	for i := 0; i < m.Len(); i++ {
		r.series = append(r.series, newSeries(m, i))
	}
	return m
}

// Sample appends every tracked metric's current values to its rings,
// stamped with the given cycle. The sampler calls this after Collect.
func (r *Registry) Sample(cycle uint64) {
	for _, s := range r.series {
		s.push(cycle, s.metric.vals[s.slot])
	}
}

// Series returns the time-series rings in registration order (tracked
// metric order, then slot order) — deterministic by construction.
func (r *Registry) Series() []*Series { return r.series }

// NodeLabels returns the canonical label values for an n-node vector:
// "0".."n-1".
func NodeLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}
