package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dvmc/internal/sim"
)

// live is a stand-in component: the metrics below read it where its
// values live.
type live struct {
	total int64
	depth [3]int64
}

func (l *live) metrics() []Metric {
	return []Metric{
		{Name: "b.depth", Help: "b depth", Kind: KindGauge, Label: "node", LabelVals: NodeLabels(3),
			Read: func(i int) int64 { return l.depth[i] }},
		{Name: "a.total", Help: "a total", Kind: KindCounter, Read: func(int) int64 { return l.total }},
	}
}

// TestRegistryRegisterAndUpdate: a snapshot lists the metrics sorted by
// name, with their label values, and reads each one's live value when it
// is taken.
func TestRegistryRegisterAndUpdate(t *testing.T) {
	var l live
	l.total = 42
	l.depth[1], l.depth[2] = 7, 9
	snap := TakeSnapshot(5, l.metrics(), nil)
	if len(snap.Metrics) != 2 || snap.Metrics[0].Name != "a.total" || snap.Metrics[1].Name != "b.depth" {
		t.Fatalf("metrics not sorted by name: %+v", snap.Metrics)
	}
	if got := snap.Metrics[0].Values; len(got) != 1 || got[0] != (MetricValue{Value: 42}) {
		t.Errorf("counter = %+v, want one unlabelled 42", got)
	}
	if got := snap.Metrics[1]; got.Total() != 16 || got.Label != "node" || got.Values[2].LabelValue != "2" || got.Kind != "gauge" {
		t.Errorf("gauge = %+v, want total 16 over node 0..2", got)
	}
	l.total = 43
	if got := TakeSnapshot(6, l.metrics(), nil).Metrics[0].Values[0].Value; got != 43 {
		t.Errorf("second snapshot read %d, want the live 43", got)
	}
}

// TestRegistryDuplicatePanics: two metrics of one name are a wiring bug,
// refused by the snapshot and the sampler alike.
func TestRegistryDuplicatePanics(t *testing.T) {
	dup := func() []Metric {
		return []Metric{{Name: "x", Kind: KindCounter, Read: func(int) int64 { return 0 }},
			{Name: "x", Kind: KindGauge, Read: func(int) int64 { return 0 }}}
	}
	for _, c := range []struct {
		name string
		take func()
	}{
		{"snapshot", func() { TakeSnapshot(0, dup(), nil) }},
		{"sampler", func() { NewSampler(dup(), 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: duplicate metric did not panic", c.name)
				}
			}()
			c.take()
		}()
	}
}

func TestSeriesRingEviction(t *testing.T) {
	var v int64
	sp := NewSampler([]Metric{{Name: "q", Help: "queue depth", Kind: KindGauge, Tracked: true,
		Read: func(int) int64 { return v }}}, 1)
	for i := 1; i <= DefaultSeriesCap+2; i++ {
		v = int64(10 * i)
		sp.Tick(sim.Cycle(i))
	}
	s := &sp.series[0]
	if s.count != DefaultSeriesCap {
		t.Fatalf("ring len = %d, want %d", s.count, DefaultSeriesCap)
	}
	// Oldest two samples (cycles 1, 2) were evicted.
	for i := 0; i < s.count; i++ {
		cycle, v := s.at(i)
		wantCycle := uint64(i + 3)
		if cycle != wantCycle || v != int64(10*wantCycle) {
			t.Errorf("at(%d) = (%d, %d), want (%d, %d)", i, cycle, v, wantCycle, 10*wantCycle)
		}
	}
}

func TestSamplerPeriodGating(t *testing.T) {
	reads := 0
	ms := func() []Metric {
		return []Metric{{Name: "r", Kind: KindCounter, Tracked: true, Read: func(int) int64 { reads++; return 0 }},
			{Name: "untracked", Kind: KindCounter, Read: func(int) int64 { t.Fatal("sampler read an untracked metric"); return 0 }}}
	}
	sp := NewSampler(ms(), 8)
	for now := sim.Cycle(0); now < 33; now++ {
		sp.Tick(now)
	}
	// Cycles 0, 8, 16, 24, 32.
	if reads != 5 {
		t.Errorf("reads = %d, want 5", reads)
	}
	reads = 0
	sp = NewSampler(ms(), 0)
	for now := sim.Cycle(0); now <= 2*DefaultEvery; now++ {
		sp.Tick(now)
	}
	if reads != 3 {
		t.Errorf("zero period: %d reads over cycles 0..%d, want 3 (every %d)", reads, 2*DefaultEvery, DefaultEvery)
	}
}

// TestFoldViolations pins the one rule a snapshot's events,
// events_dropped and latency sections are folded by: the events are the
// violation list as given, up to the bound, with the rest counted as
// dropped, and the latency section is the one detection handed in,
// whatever the events hold.
func TestFoldViolations(t *testing.T) {
	list := []ViolationEvent{
		{Invariant: "uo", Node: 1, DetectCycle: 100},
		{Invariant: "cc", Node: 2, DetectCycle: 300, Detail: "cet epoch overlap"},
	}
	for len(list) <= DefaultMaxEvents {
		list = append(list, ViolationEvent{Invariant: "uo", Node: 0, DetectCycle: 10})
	}
	event := func(i int) ViolationEvent { return list[i] }

	var snap Snapshot
	snap.FoldViolations(len(list), event, "cc", 60)
	if len(snap.Events) != DefaultMaxEvents || snap.EventsDropped != 1 {
		t.Fatalf("events = %d dropped = %d, want %d, 1", len(snap.Events), snap.EventsDropped, DefaultMaxEvents)
	}
	if !reflect.DeepEqual(snap.Events, list[:DefaultMaxEvents]) {
		t.Errorf("events are not the list's first %d entries", DefaultMaxEvents)
	}
	if len(snap.Latency) != 1 || snap.Latency[0].Invariant != "cc" || !reflect.DeepEqual(snap.Latency[0].Values, []float64{60}) || snap.Latency[0].N != 1 {
		t.Fatalf("latency = %+v, want cc [60] alone", snap.Latency)
	}

	// A detection that is no violation (an ECC correction) still has
	// its entry; with no detection, events leave the latency section
	// empty, and a clean run folds to empty sections.
	snap.FoldViolations(0, event, "ecc-corrected", 0)
	if snap.Events != nil || len(snap.Latency) != 1 || snap.Latency[0].Invariant != "ecc-corrected" || !reflect.DeepEqual(snap.Latency[0].Values, []float64{0}) {
		t.Errorf("ECC fold = %+v, want no events and ecc-corrected [0]", snap)
	}
	snap.FoldViolations(2, event, "", 0)
	if len(snap.Events) != 2 || snap.EventsDropped != 0 || snap.Latency != nil {
		t.Errorf("fold without detection = %+v", snap)
	}
	snap.FoldViolations(0, event, "", 0)
	if snap.Events != nil || snap.EventsDropped != 0 || snap.Latency != nil {
		t.Errorf("clean fold = %+v, want empty sections", snap)
	}
}

// buildSnapshot assembles a snapshot with every feature in play:
// scalars, vectors, tracked series, events, and latency samples.
func buildSnapshot(cycle uint64) *Snapshot {
	ops := []int64{10, 20}
	var q int64
	ms := []Metric{
		{Name: "proc.ops", Help: "ops retired", Kind: KindCounter, Label: "node", LabelVals: NodeLabels(2),
			Read: func(i int) int64 { return ops[i] }},
		{Name: "checker.queue", Help: "inform queue depth", Kind: KindGauge, Tracked: true,
			Read: func(int) int64 { return q }},
	}
	sp := NewSampler(ms, 100)
	for i := 1; i <= 3; i++ {
		q = int64(i)
		sp.Tick(sim.Cycle(100 * i))
	}
	snap := TakeSnapshot(cycle, ms, sp)
	snap.FoldViolations(1, func(int) ViolationEvent {
		return ViolationEvent{Invariant: "coherence-epoch-overlap", Node: 1, Addr: 0x80,
			DetectCycle: 150, Detail: "cet epoch overlap"}
	}, "coherence-epoch-overlap", 30)
	return snap
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := buildSnapshot(300)

	var buf bytes.Buffer
	if err := snap.EncodeJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var buf2 bytes.Buffer
	if err := got.EncodeJSON(&buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("JSON round trip is not byte-identical:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
	if got.Cycle != 300 || len(got.Metrics) != 2 || len(got.Series) != 1 || len(got.Events) != 1 {
		t.Errorf("decoded snapshot shape: cycle=%d metrics=%d series=%d events=%d",
			got.Cycle, len(got.Metrics), len(got.Series), len(got.Events))
	}
	if len(got.Latency) != 1 || got.Latency[0].Invariant != "coherence-epoch-overlap" || !reflect.DeepEqual(got.Latency[0].Values, []float64{30}) {
		t.Errorf("latency snapshot = %+v", got.Latency)
	}
}

func TestSnapshotEncodersDeterministic(t *testing.T) {
	// Two independently built but identical snapshots must encode
	// byte-identically in every format.
	a, b := buildSnapshot(300), buildSnapshot(300)
	encoders := map[string]func(*Snapshot, *bytes.Buffer) error{
		"json":       func(s *Snapshot, w *bytes.Buffer) error { return s.EncodeJSON(w) },
		"prom":       func(s *Snapshot, w *bytes.Buffer) error { return s.Prometheus(w) },
		"csv":        func(s *Snapshot, w *bytes.Buffer) error { return s.CSV(w) },
		"series-csv": func(s *Snapshot, w *bytes.Buffer) error { return s.SeriesCSV(w) },
		"text":       func(s *Snapshot, w *bytes.Buffer) error { return s.Text(w) },
	}
	for name, enc := range encoders {
		var wa, wb bytes.Buffer
		if err := enc(a, &wa); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := enc(b, &wb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Errorf("%s encoding differs between identical snapshots", name)
		}
		if wa.Len() == 0 {
			t.Errorf("%s encoding is empty", name)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	snap := buildSnapshot(300)
	var buf bytes.Buffer
	if err := snap.Prometheus(&buf); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP dvmc_proc_ops ops retired",
		"# TYPE dvmc_proc_ops counter",
		`dvmc_proc_ops{node="0"} 10`,
		`dvmc_proc_ops{node="1"} 20`,
		"# TYPE dvmc_checker_queue gauge",
		"dvmc_snapshot_cycle 300",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// --- allocation discipline -------------------------------------------

// newLoadedSampler builds a sampler shaped like a real 8-node system's:
// tracked vectors read from live per-node counters, one of them a gauge
// — the steady-state configuration whose tick must not allocate.
func newLoadedSampler() *Sampler {
	var live [8]uint64 // stands in for the components' own counters
	var ms []Metric
	for _, name := range []string{"proc.ops", "cache.l1_misses", "checker.informs"} {
		ms = append(ms, Metric{Name: name, Kind: KindCounter, Label: "node", LabelVals: NodeLabels(8), Tracked: true,
			Read: func(i int) int64 {
				live[i] += uint64(i)
				return int64(live[i])
			}})
	}
	ms = append(ms, Metric{Name: "checker.met_queue_depth", Kind: KindGauge, Label: "node", LabelVals: NodeLabels(8), Tracked: true,
		Read: func(i int) int64 { return int64(i) }})
	return NewSampler(ms, 1)
}

// TestSamplerTickSteadyStateAllocFree pins the whole sampling tick —
// the tracked reads plus ring append, including ring wrap-around — to
// zero allocations.
func TestSamplerTickSteadyStateAllocFree(t *testing.T) {
	sp := newLoadedSampler()
	now := sim.Cycle(0)
	step := func() {
		sp.Tick(now)
		now++
	}
	// Warm past ring capacity so eviction is exercised too.
	for i := 0; i < DefaultSeriesCap+16; i++ {
		step()
	}
	// One measured run of 2000 steps: AllocsPerRun truncates the mean
	// per run to an integer, so only a single run counts an allocation
	// that happens once in the 2000.
	batch := func() {
		for k := 0; k < 2000; k++ {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("sampler tick steady state: %.0f allocs in 2000 ticks, want 0", allocs)
	}
	if got := sp.series[0].count; got != DefaultSeriesCap {
		t.Fatalf("ring not saturated: len %d, want %d", got, DefaultSeriesCap)
	}
}

func BenchmarkSamplerTick(b *testing.B) {
	sp := newLoadedSampler()
	for i := 0; i < DefaultSeriesCap+16; i++ {
		sp.Tick(sim.Cycle(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Tick(sim.Cycle(i))
	}
}
