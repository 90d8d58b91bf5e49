package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// MergeSnapshots folds any number of snapshots into one canonical
// aggregate — the farm-level view of a campaign whose cases ran in
// many processes. The result depends only on the multiset of input
// snapshots, never on their order or grouping: merging per-case
// snapshots one by one, or merging per-shard merges of them, yields
// byte-identical JSON. That property is what lets a distributed
// coordinator present the same merged telemetry a serial single-process
// campaign computes.
//
// Merge semantics:
//
//   - Cycle: the maximum input cycle (the farthest-run case).
//   - Metrics: unioned by name; slots unioned by label value and
//     summed. Counters sum naturally; gauges sum too, so a merged
//     gauge reads as a farm-wide total, not a point-in-time depth.
//     Slots are re-sorted by label value, so merged vectors are
//     canonical even when inputs registered slots in different orders.
//   - Latency: distributions unioned by detection kind; observations
//     are pooled and sorted ascending, stats recomputed from the pool.
//     A campaign's merged section is thus its runs' detection latencies
//     grouped by detection kind.
//   - Events: concatenated and sorted by (detect cycle, invariant,
//     node, addr, detail); EventsDropped sums.
//   - Series: dropped. Time-series rings are per-process views; they
//     do not aggregate meaningfully across processes.
//
// Metrics sharing a name must agree on kind and label; a mismatch is a
// schema conflict and errors rather than guessing.
func MergeSnapshots(snaps ...*Snapshot) (*Snapshot, error) {
	type slotKey struct{ metric, labelValue string }
	metricMeta := map[string]*MetricSnapshot{}
	slotSums := map[slotKey]int64{}
	latVals := map[string][]float64{}
	out := &Snapshot{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.Cycle > out.Cycle {
			out.Cycle = s.Cycle
		}
		out.EventsDropped += s.EventsDropped
		out.Events = append(out.Events, s.Events...)
		for i := range s.Metrics {
			m := &s.Metrics[i]
			meta := metricMeta[m.Name]
			if meta == nil {
				metricMeta[m.Name] = &MetricSnapshot{Name: m.Name, Help: m.Help, Kind: m.Kind, Label: m.Label}
			} else if meta.Kind != m.Kind || meta.Label != m.Label {
				return nil, fmt.Errorf("telemetry: merge: metric %q has conflicting schemas (%s/%q vs %s/%q)",
					m.Name, meta.Kind, meta.Label, m.Kind, m.Label)
			} else if meta.Help == "" {
				meta.Help = m.Help
			}
			for _, v := range m.Values {
				slotSums[slotKey{m.Name, v.LabelValue}] += v.Value
			}
		}
		for i := range s.Latency {
			l := &s.Latency[i]
			latVals[l.Invariant] = append(latVals[l.Invariant], l.Values...)
		}
	}

	names := make([]string, 0, len(metricMeta))
	//dvmc:orderinsensitive keys are collected and sorted before use
	for name := range metricMeta {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ms := *metricMeta[name]
		var labelValues []string
		//dvmc:orderinsensitive keys are collected and sorted before use
		for k := range slotSums {
			if k.metric == name {
				labelValues = append(labelValues, k.labelValue)
			}
		}
		sort.Strings(labelValues)
		for _, lv := range labelValues {
			ms.Values = append(ms.Values, MetricValue{LabelValue: lv, Value: slotSums[slotKey{name, lv}]})
		}
		out.Metrics = append(out.Metrics, ms)
	}

	//dvmc:orderinsensitive each pool is sorted on its own
	for _, vals := range latVals {
		sort.Float64s(vals)
	}
	out.Latency = latencySections(latVals)

	sort.SliceStable(out.Events, func(i, j int) bool { return eventLess(&out.Events[i], &out.Events[j]) })
	return out, nil
}

// eventLess is the total order merged event logs are sorted by; ties on
// every field leave equal events adjacent, so the sorted log is a
// function of the event multiset alone.
func eventLess(a, b *ViolationEvent) bool {
	switch {
	case a.DetectCycle != b.DetectCycle:
		return a.DetectCycle < b.DetectCycle
	case a.Invariant != b.Invariant:
		return a.Invariant < b.Invariant
	case a.Node != b.Node:
		return a.Node < b.Node
	case a.Addr != b.Addr:
		return a.Addr < b.Addr
	default:
		return strings.Compare(a.Detail, b.Detail) < 0
	}
}
