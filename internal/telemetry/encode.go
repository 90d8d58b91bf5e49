package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dvmc/internal/stats"
	"dvmc/internal/strictjson"
)

// Snapshot is the serialisable view of a system's metrics at one instant: the
// JSON interchange format shared by the -metrics-out flags, dvmc-stat,
// and the live /metrics endpoint. Prometheus and CSV renderings are
// derived from it, so every encoder sees the same data in the same
// (sorted, deterministic) order.
type Snapshot struct {
	// Cycle is the simulation cycle the snapshot was taken at.
	Cycle uint64 `json:"cycle"`
	// Metrics holds every metric, sorted by name.
	Metrics []MetricSnapshot `json:"metrics"`
	// Series holds the tracked time-series rings, sorted by
	// (name, label value slot order).
	Series []SeriesSnapshot `json:"series,omitempty"`
	// Events is the structured violation log in arrival order.
	Events []ViolationEvent `json:"events,omitempty"`
	// EventsDropped counts events discarded after the log filled.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// Latency holds the detection-latency distributions, one per
	// detection kind, sorted by kind name.
	Latency []LatencySnapshot `json:"latency,omitempty"`
}

// MetricSnapshot is one metric: a scalar (one value, empty label) or a
// vector (one value per label value).
type MetricSnapshot struct {
	Name   string        `json:"name"`
	Help   string        `json:"help,omitempty"`
	Kind   string        `json:"kind"`
	Label  string        `json:"label,omitempty"`
	Values []MetricValue `json:"values"`
}

// MetricValue is one slot of a metric.
type MetricValue struct {
	LabelValue string `json:"label_value,omitempty"`
	Value      int64  `json:"value"`
}

// Total sums the metric's slots.
func (m *MetricSnapshot) Total() int64 {
	var t int64
	for _, v := range m.Values {
		t += v.Value
	}
	return t
}

// ViolationEvent is one checker firing as a snapshot records it: which
// invariant, on which node, at which address, when the checker caught
// it, and which comparison caught it.
type ViolationEvent struct {
	// Invariant is the violation-kind name (core.ViolationKind.String()).
	Invariant string `json:"invariant"`
	// Node is the detecting node.
	Node int `json:"node"`
	// Addr is the implicated address (0 if not address-attributed).
	Addr uint64 `json:"addr"`
	// DetectCycle is the cycle the checker fired.
	DetectCycle uint64 `json:"detect_cycle"`
	// Detail names the comparison that caught it (e.g. "vc store value",
	// "met inform order", "cet epoch overlap").
	Detail string `json:"detail,omitempty"`
}

// SeriesSnapshot is one time-series ring, oldest sample first.
type SeriesSnapshot struct {
	Name       string   `json:"name"`
	Label      string   `json:"label,omitempty"`
	LabelValue string   `json:"label_value,omitempty"`
	Cycles     []uint64 `json:"cycles"`
	Values     []int64  `json:"values"`
}

// LatencySnapshot is one detection kind's latency distribution.
// Raw observations are kept so downstream tools (dvmc-stat, the
// experiment harness) can re-bucket histograms at any resolution.
type LatencySnapshot struct {
	Invariant string    `json:"invariant"`
	N         int       `json:"n"`
	MeanCyc   float64   `json:"mean_cycles"`
	MinCyc    float64   `json:"min_cycles"`
	MaxCyc    float64   `json:"max_cycles"`
	P50Cyc    float64   `json:"p50_cycles"`
	P99Cyc    float64   `json:"p99_cycles"`
	Values    []float64 `json:"values"`
}

// Sample rebuilds a stats.Sample from the stored observations.
func (l *LatencySnapshot) Sample() *stats.Sample {
	s := &stats.Sample{}
	for _, v := range l.Values {
		s.Add(v)
	}
	return s
}

// TakeSnapshot reads every metric of ms as of the given cycle, and the
// series sp has recorded; with no sampler (nil), each tracked slot of ms
// is listed with no samples. The result is deterministic: ms is sorted
// by name (a duplicate name panics), series by (name, slot). Nothing
// here records a violation, so the events and latency sections are left
// to FoldViolations.
func TakeSnapshot(cycle uint64, ms []Metric, sp *Sampler) *Snapshot {
	if sp == nil {
		sp = NewSampler(ms, 0)
	} else {
		sortByName(ms)
	}
	snap := &Snapshot{Cycle: cycle}
	for i := range ms {
		m := &ms[i]
		out := MetricSnapshot{Name: m.Name, Help: m.Help, Kind: m.Kind.String(), Label: m.Label}
		for slot := 0; slot < m.Len(); slot++ {
			out.Values = append(out.Values, MetricValue{LabelValue: m.LabelValue(slot), Value: m.Read(slot)})
		}
		snap.Metrics = append(snap.Metrics, out)
	}
	for i := range sp.series {
		s := &sp.series[i]
		ss := SeriesSnapshot{Name: s.metric.Name, Label: s.metric.Label, LabelValue: s.metric.LabelValue(s.slot)}
		for j := 0; j < s.count; j++ {
			c, v := s.at(j)
			ss.Cycles = append(ss.Cycles, c)
			ss.Values = append(ss.Values, v)
		}
		snap.Series = append(snap.Series, ss)
	}
	return snap
}

// FoldViolations sets snap's events and events_dropped sections from a
// run's violation list, which is the one record of its checker firings:
// n is the list's length and event(i) its i-th entry. Events holds the
// first DefaultMaxEvents in list order and EventsDropped counts the
// rest. The latency section is the run's one detection: latency cycles
// under kind, or nothing when kind is "" (no fault was detected).
func (snap *Snapshot) FoldViolations(n int, event func(i int) ViolationEvent, kind string, latency uint64) {
	kept := min(n, DefaultMaxEvents)
	snap.Events, snap.EventsDropped = nil, uint64(n-kept)
	for i := 0; i < kept; i++ {
		snap.Events = append(snap.Events, event(i))
	}
	snap.Latency = nil
	if kind != "" {
		snap.Latency = latencySections(map[string][]float64{kind: {float64(latency)}})
	}
}

// latencySections summarises each detection kind's observations, kept
// in the order given, into latency entries sorted by kind (nil for none).
func latencySections(latVals map[string][]float64) []LatencySnapshot {
	invariants := make([]string, 0, len(latVals))
	//dvmc:orderinsensitive keys are collected and sorted before use
	for inv := range latVals {
		invariants = append(invariants, inv)
	}
	sort.Strings(invariants)
	var out []LatencySnapshot
	for _, inv := range invariants {
		ls := LatencySnapshot{Invariant: inv, Values: latVals[inv]}
		sample := ls.Sample()
		ls.N = sample.N()
		ls.MeanCyc = sample.Mean()
		ls.MinCyc = sample.Min()
		ls.MaxCyc = sample.Max()
		ls.P50Cyc = sample.Quantile(0.5)
		ls.P99Cyc = sample.Quantile(0.99)
		out = append(out, ls)
	}
	return out
}

// EncodeJSON writes the snapshot as indented JSON (the stable
// interchange format; dvmc-stat decodes this and re-encodes any other
// format from it).
func (s *Snapshot) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSnapshot reads a JSON snapshot strictly (unknown fields and
// trailing bytes are refused, so format drift and a report printed into
// the same stream are caught loudly), and refuses the two shapes the
// renderers index into unchecked: a valueless scalar, a series of
// unequal lengths.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := strictjson.Decode(r, &s); err != nil {
		return nil, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	for i := range s.Metrics {
		if m := &s.Metrics[i]; m.Label == "" && len(m.Values) == 0 {
			return nil, fmt.Errorf("telemetry: decode snapshot: scalar metric %q has no value", m.Name)
		}
	}
	for i := range s.Series {
		if sr := &s.Series[i]; len(sr.Cycles) != len(sr.Values) {
			return nil, fmt.Errorf("telemetry: decode snapshot: series %q has %d cycles but %d values", sr.Name, len(sr.Cycles), len(sr.Values))
		}
	}
	return &s, nil
}

// promName converts a metric name to Prometheus conventions:
// "dvmc_" prefix and dots replaced by underscores.
func promName(name string) string {
	return "dvmc_" + strings.ReplaceAll(name, ".", "_")
}

// Prometheus writes the snapshot's metrics in Prometheus text
// exposition format (metrics only; series, events, and latency
// distributions live in the JSON and CSV renderings). Output order is
// sorted-name deterministic.
func (s *Snapshot) Prometheus(w io.Writer) error {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		pn := promName(m.Name)
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, m.Kind); err != nil {
			return err
		}
		for _, v := range m.Values {
			var err error
			if m.Label == "" {
				_, err = fmt.Fprintf(w, "%s %d\n", pn, v.Value)
			} else {
				_, err = fmt.Fprintf(w, "%s{%s=%q} %d\n", pn, m.Label, v.LabelValue, v.Value)
			}
			if err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE dvmc_snapshot_cycle gauge\ndvmc_snapshot_cycle %d\n", s.Cycle)
	return err
}

// CSV writes the snapshot's metric values in long form:
// metric,kind,label,label_value,value — one row per slot, sorted by
// (name, slot order).
func (s *Snapshot) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "metric,kind,label,label_value,value"); err != nil {
		return err
	}
	for i := range s.Metrics {
		m := &s.Metrics[i]
		for _, v := range m.Values {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d\n", m.Name, m.Kind, m.Label, v.LabelValue, v.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// SeriesCSV writes the tracked time series in long form:
// metric,label_value,cycle,value — one row per sample, series in
// (name, slot) order, samples oldest first.
func (s *Snapshot) SeriesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "metric,label_value,cycle,value"); err != nil {
		return err
	}
	for i := range s.Series {
		sr := &s.Series[i]
		for j := range sr.Cycles {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d\n", sr.Name, sr.LabelValue, sr.Cycles[j], sr.Values[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Text writes a human-readable report: metrics grouped with per-slot
// breakdowns, then per-detection-kind latency histograms, then the
// violation-event log.
func (s *Snapshot) Text(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "telemetry snapshot @ cycle %d\n", s.Cycle); err != nil {
		return err
	}
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Label == "" {
			if _, err := fmt.Fprintf(w, "  %-36s %12d\n", m.Name, m.Values[0].Value); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-36s %12d", m.Name, m.Total()); err != nil {
			return err
		}
		parts := make([]string, 0, len(m.Values))
		for _, v := range m.Values {
			parts = append(parts, fmt.Sprintf("%s=%s:%d", m.Label, v.LabelValue, v.Value))
		}
		if _, err := fmt.Fprintf(w, "  (%s)\n", strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	if len(s.Latency) > 0 {
		if _, err := fmt.Fprintln(w, "detection latency (cycles):"); err != nil {
			return err
		}
		for i := range s.Latency {
			l := &s.Latency[i]
			if _, err := fmt.Fprintf(w, "  %-24s n=%d mean=%.1f p50=%.0f p99=%.0f max=%.0f\n",
				l.Invariant, l.N, l.MeanCyc, l.P50Cyc, l.P99Cyc, l.MaxCyc); err != nil {
				return err
			}
			if bins := l.Sample().Histogram(8); bins != nil {
				if _, err := fmt.Fprintf(w, "    %s\n", stats.FormatHistogram(bins)); err != nil {
					return err
				}
			}
		}
	}
	if len(s.Events) > 0 {
		if _, err := fmt.Fprintf(w, "violations (%d recorded, %d dropped):\n", len(s.Events), s.EventsDropped); err != nil {
			return err
		}
		for i := range s.Events {
			ev := &s.Events[i]
			if _, err := fmt.Fprintf(w, "  [%d] %s node=%d addr=%#x detect=%d", i, ev.Invariant, ev.Node, ev.Addr, ev.DetectCycle); err != nil {
				return err
			}
			if ev.Detail != "" {
				if _, err := fmt.Fprintf(w, " via %q", ev.Detail); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
