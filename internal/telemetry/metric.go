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
// class). It stores no value: Read returns a slot's value as the live
// component that keeps it holds it now.
type Metric struct {
	Name string
	Help string
	Kind Kind
	// Label is the label key and LabelVals its values, one per slot;
	// both are empty for a scalar.
	Label     string
	LabelVals []string
	// Tracked metrics get one time-series ring per slot in the Sampler.
	Tracked bool
	// Read returns slot i's current value (a scalar's only slot is 0).
	// The sampler calls it on every tick of a tracked metric, so it must
	// not allocate.
	Read func(i int) int64
}

// Len returns the number of slots (1 for scalars).
func (m *Metric) Len() int {
	if m.LabelVals == nil {
		return 1
	}
	return len(m.LabelVals)
}

// LabelValue returns the label value of slot i ("" for scalars).
func (m *Metric) LabelValue(i int) string {
	if m.LabelVals == nil {
		return ""
	}
	return m.LabelVals[i]
}

// sortByName sorts ms by name, the order every encoder and the sampler
// use, and panics on a duplicate name (a wiring bug).
func sortByName(ms []Metric) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for i := 1; i < len(ms); i++ {
		if ms[i].Name == ms[i-1].Name {
			panic(fmt.Sprintf("telemetry: duplicate metric %q", ms[i].Name))
		}
	}
}

// NodeLabels returns the canonical label values for an n-node vector:
// "0".."n-1".
func NodeLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}
