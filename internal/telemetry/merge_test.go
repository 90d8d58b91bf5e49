package telemetry

import (
	"bytes"
	"testing"
)

// mergeInput builds a synthetic per-run snapshot the way a campaign
// case would produce one.
func mergeInput(cycle uint64, nodeVals map[string]int64, lat []float64, events []ViolationEvent) *Snapshot {
	s := &Snapshot{Cycle: cycle, Events: events}
	ms := MetricSnapshot{Name: "proc.ops_retired", Help: "operations retired", Kind: "counter", Label: "node"}
	// Deliberately insert slots in reverse order: the merge must
	// canonicalise slot order, not inherit it.
	for i := len(nodeLabelsSorted(nodeVals)) - 1; i >= 0; i-- {
		lv := nodeLabelsSorted(nodeVals)[i]
		ms.Values = append(ms.Values, MetricValue{LabelValue: lv, Value: nodeVals[lv]})
	}
	s.Metrics = append(s.Metrics, ms)
	s.Metrics = append(s.Metrics, MetricSnapshot{
		Name: "checker.violations", Kind: "counter",
		Values: []MetricValue{{Value: int64(len(events))}},
	})
	if len(lat) > 0 {
		ls := LatencySnapshot{Invariant: "uo-mismatch", Values: lat}
		sm := ls.Sample()
		ls.N, ls.MeanCyc = sm.N(), sm.Mean()
		s.Latency = append(s.Latency, ls)
	}
	s.Series = append(s.Series, SeriesSnapshot{Name: "proc.rob_occupancy", Cycles: []uint64{cycle}, Values: []int64{1}})
	return s
}

func nodeLabelsSorted(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	//dvmc:orderinsensitive keys are collected and sorted before use
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func encodeMerged(t *testing.T, snaps ...*Snapshot) []byte {
	t.Helper()
	m, err := MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeSnapshotsOrderAndGroupingIndependent is the fabric's
// telemetry contract at the byte level: any order, and any grouping
// (merge-of-merges versus one flat merge), encodes identically.
func TestMergeSnapshotsOrderAndGroupingIndependent(t *testing.T) {
	a := mergeInput(100, map[string]int64{"node0": 5, "node1": 7}, []float64{40, 10},
		[]ViolationEvent{{Invariant: "uo-mismatch", Node: 1, DetectCycle: 90}})
	b := mergeInput(250, map[string]int64{"node0": 2, "node2": 9}, []float64{25},
		[]ViolationEvent{{Invariant: "cet-overlap", Node: 0, DetectCycle: 90}})
	c := mergeInput(30, map[string]int64{"node1": 1}, nil, nil)

	flat := encodeMerged(t, a, b, c)
	for _, perm := range [][]*Snapshot{{a, c, b}, {b, a, c}, {c, b, a}} {
		if got := encodeMerged(t, perm...); !bytes.Equal(got, flat) {
			t.Fatalf("merge is order-dependent:\n%s\nvs\n%s", got, flat)
		}
	}
	ab, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeMerged(t, ab, c); !bytes.Equal(got, flat) {
		t.Fatalf("merge is grouping-dependent:\n%s\nvs\n%s", got, flat)
	}
	ca, err := MergeSnapshots(c, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeMerged(t, b, ca); !bytes.Equal(got, flat) {
		t.Fatal("merge of merges differs from flat merge")
	}
}

// TestMergeSnapshotsSemantics spot-checks sums, max-cycle, latency
// pooling, event ordering, and series dropping.
func TestMergeSnapshotsSemantics(t *testing.T) {
	a := mergeInput(100, map[string]int64{"node0": 5, "node1": 7}, []float64{40, 10},
		[]ViolationEvent{{Invariant: "uo-mismatch", Node: 1, DetectCycle: 90}})
	b := mergeInput(250, map[string]int64{"node0": 2, "node2": 9}, []float64{25},
		[]ViolationEvent{{Invariant: "cet-overlap", Node: 0, DetectCycle: 90}})
	a.EventsDropped = 3
	m, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycle != 250 {
		t.Fatalf("merged cycle = %d, want 250", m.Cycle)
	}
	if m.EventsDropped != 3 {
		t.Fatalf("merged dropped = %d, want 3", m.EventsDropped)
	}
	if len(m.Series) != 0 {
		t.Fatalf("merged snapshot kept %d per-process series", len(m.Series))
	}
	var ops *MetricSnapshot
	for i := range m.Metrics {
		if m.Metrics[i].Name == "proc.ops_retired" {
			ops = &m.Metrics[i]
		}
	}
	if ops == nil {
		t.Fatal("proc.ops_retired missing from merge")
	}
	want := []MetricValue{{LabelValue: "node0", Value: 7}, {LabelValue: "node1", Value: 7}, {LabelValue: "node2", Value: 9}}
	if len(ops.Values) != len(want) {
		t.Fatalf("ops slots = %v, want %v", ops.Values, want)
	}
	for i, w := range want {
		if ops.Values[i] != w {
			t.Fatalf("ops slot %d = %v, want %v", i, ops.Values[i], w)
		}
	}
	if len(m.Latency) != 1 || m.Latency[0].N != 3 || m.Latency[0].MinCyc != 10 || m.Latency[0].MaxCyc != 40 {
		t.Fatalf("merged latency = %+v", m.Latency)
	}
	for i, v := range m.Latency[0].Values {
		if i > 0 && m.Latency[0].Values[i-1] > v {
			t.Fatal("merged latency values not sorted ascending")
		}
	}
	// Equal detect cycles order by invariant name.
	if len(m.Events) != 2 || m.Events[0].Invariant != "cet-overlap" || m.Events[1].Invariant != "uo-mismatch" {
		t.Fatalf("merged events = %+v", m.Events)
	}
}

// TestMergeSnapshotsSchemaConflict: one name, two shapes — refuse.
func TestMergeSnapshotsSchemaConflict(t *testing.T) {
	a := &Snapshot{Metrics: []MetricSnapshot{{Name: "x", Kind: "counter", Values: []MetricValue{{Value: 1}}}}}
	b := &Snapshot{Metrics: []MetricSnapshot{{Name: "x", Kind: "gauge", Values: []MetricValue{{Value: 1}}}}}
	if _, err := MergeSnapshots(a, b); err == nil {
		t.Fatal("conflicting metric kinds must not merge")
	}
}

// TestMergeSnapshotsDisjointLabelVectors: inputs whose label vectors
// share no slots (and metrics present in only one input) union into
// one canonically sorted vector with nothing summed across slots.
func TestMergeSnapshotsDisjointLabelVectors(t *testing.T) {
	a := &Snapshot{Metrics: []MetricSnapshot{
		{Name: "net.msgs", Kind: "counter", Label: "node", Values: []MetricValue{
			{LabelValue: "node1", Value: 11}, {LabelValue: "node0", Value: 10},
		}},
		{Name: "only.in.a", Kind: "counter", Values: []MetricValue{{Value: 1}}},
	}}
	b := &Snapshot{Metrics: []MetricSnapshot{
		{Name: "net.msgs", Kind: "counter", Label: "node", Values: []MetricValue{
			{LabelValue: "node3", Value: 33}, {LabelValue: "node2", Value: 22},
		}},
	}}
	m, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var msgs *MetricSnapshot
	onlyA := false
	for i := range m.Metrics {
		switch m.Metrics[i].Name {
		case "net.msgs":
			msgs = &m.Metrics[i]
		case "only.in.a":
			onlyA = true
		}
	}
	if !onlyA {
		t.Fatal("metric present in only one input was dropped")
	}
	if msgs == nil {
		t.Fatal("net.msgs missing from merge")
	}
	want := []MetricValue{
		{LabelValue: "node0", Value: 10}, {LabelValue: "node1", Value: 11},
		{LabelValue: "node2", Value: 22}, {LabelValue: "node3", Value: 33},
	}
	if len(msgs.Values) != len(want) {
		t.Fatalf("disjoint union slots = %v, want %v", msgs.Values, want)
	}
	for i, w := range want {
		if msgs.Values[i] != w {
			t.Fatalf("slot %d = %v, want %v", i, msgs.Values[i], w)
		}
	}
}

// TestMergeSnapshotsEmptySeriesRings: series rings that never sampled
// (empty cycle/value arrays) merge like any other series — dropped —
// without disturbing the rest of the aggregate.
func TestMergeSnapshotsEmptySeriesRings(t *testing.T) {
	a := &Snapshot{
		Cycle:   50,
		Metrics: []MetricSnapshot{{Name: "x", Kind: "counter", Values: []MetricValue{{Value: 4}}}},
		Series:  []SeriesSnapshot{{Name: "proc.rob_occupancy"}},
	}
	b := &Snapshot{
		Series: []SeriesSnapshot{{Name: "proc.rob_occupancy", Cycles: []uint64{}, Values: []int64{}}},
	}
	m, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Series) != 0 {
		t.Fatalf("merged snapshot kept %d series from empty rings", len(m.Series))
	}
	if m.Cycle != 50 || len(m.Metrics) != 1 || m.Metrics[0].Values[0].Value != 4 {
		t.Fatalf("empty series rings disturbed the aggregate: %+v", m)
	}
}

// TestMergeSnapshotsLabelSchemaConflict: the other schema axis — same
// name and kind but different label dimensions must refuse to merge,
// as silently unioning "node"-keyed and "kind"-keyed slots would
// fabricate a vector no process ever recorded.
func TestMergeSnapshotsLabelSchemaConflict(t *testing.T) {
	a := &Snapshot{Metrics: []MetricSnapshot{
		{Name: "x", Kind: "counter", Label: "node", Values: []MetricValue{{LabelValue: "node0", Value: 1}}},
	}}
	b := &Snapshot{Metrics: []MetricSnapshot{
		{Name: "x", Kind: "counter", Label: "kind", Values: []MetricValue{{LabelValue: "drop", Value: 1}}},
	}}
	if _, err := MergeSnapshots(a, b); err == nil {
		t.Fatal("conflicting metric labels must not merge")
	}
	// The error must survive either argument order.
	if _, err := MergeSnapshots(b, a); err == nil {
		t.Fatal("conflicting metric labels must not merge (reversed)")
	}
}

// TestMergeSnapshotsEmpty: no inputs (and nil inputs) give a valid
// empty aggregate.
func TestMergeSnapshotsEmpty(t *testing.T) {
	m, err := MergeSnapshots(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycle != 0 || len(m.Metrics) != 0 || len(m.Events) != 0 {
		t.Fatalf("empty merge = %+v", m)
	}
}

// TestEventLess walks every tie-break of the merged event order: each
// row differs from base in one field only, later in the order than
// every field it ties on, and must sort after base and never before it.
func TestEventLess(t *testing.T) {
	base := ViolationEvent{Invariant: "lost-operation", Node: 1, Addr: 0x40, DetectCycle: 90, Detail: "a"}
	for _, tc := range []struct {
		name  string
		later func(e *ViolationEvent)
	}{
		{"detect cycle", func(e *ViolationEvent) { e.DetectCycle, e.Invariant = 91, "a" }},
		{"invariant", func(e *ViolationEvent) { e.Invariant, e.Node = "operation-timeout", 0 }},
		{"node", func(e *ViolationEvent) { e.Node, e.Addr = 2, 0 }},
		{"addr", func(e *ViolationEvent) { e.Addr, e.Detail = 0x80, "" }},
		{"detail", func(e *ViolationEvent) { e.Detail = "b" }},
	} {
		b := base
		tc.later(&b)
		if !eventLess(&base, &b) || eventLess(&b, &base) {
			t.Errorf("%s: %+v must sort strictly before %+v", tc.name, base, b)
		}
	}
	if same := base; eventLess(&base, &same) {
		t.Errorf("equal events must tie: %+v", base)
	}
}
