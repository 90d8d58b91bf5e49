package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dvmc/internal/sim"
)

func TestRegistryRegisterAndUpdate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.total", "a total")
	g := r.GaugeVec("b.depth", "b depth", "node", NodeLabels(3))

	c.Inc(0)
	c.Add(0, 41)
	g.Set(1, 7)
	g.Set(2, 9)

	if got := c.Value(0); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if got := g.Total(); got != 16 {
		t.Errorf("gauge total = %d, want 16", got)
	}
	if got := g.LabelValue(2); got != "2" {
		t.Errorf("label value = %q, want \"2\"", got)
	}
	if r.Lookup("a.total") != c || r.Lookup("nope") != nil {
		t.Errorf("Lookup misbehaves")
	}

	ms := r.Metrics()
	if len(ms) != 2 || ms[0].Name() != "a.total" || ms[1].Name() != "b.depth" {
		t.Errorf("Metrics() not sorted by name: %v, %v", ms[0].Name(), ms[1].Name())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate registration did not panic")
		}
	}()
	r.Counter("x", "")
}

func TestSeriesRingEviction(t *testing.T) {
	r := NewRegistry()
	g := r.Track(r.Gauge("q", "queue depth"))
	for i := 1; i <= DefaultSeriesCap+2; i++ {
		g.Set(0, int64(10*i))
		r.Sample(uint64(i))
	}
	s := r.Series()[0]
	if s.Cap() != DefaultSeriesCap || s.Len() != DefaultSeriesCap {
		t.Fatalf("ring len/cap = %d/%d, want %d/%d", s.Len(), s.Cap(), DefaultSeriesCap, DefaultSeriesCap)
	}
	// Oldest two samples (cycles 1, 2) were evicted.
	for i := 0; i < s.Len(); i++ {
		cycle, v := s.At(i)
		wantCycle := uint64(i + 3)
		if cycle != wantCycle || v != int64(10*wantCycle) {
			t.Errorf("At(%d) = (%d, %d), want (%d, %d)", i, cycle, v, wantCycle, 10*wantCycle)
		}
	}
}

func TestSamplerPeriodGating(t *testing.T) {
	r := NewRegistry()
	probes := 0
	r.AddProbe(func() { probes++ })
	sp := NewSampler(r, 8)
	for now := sim.Cycle(0); now < 33; now++ {
		sp.Tick(now)
	}
	// Cycles 0, 8, 16, 24, 32.
	if sp.Samples() != 5 || probes != 5 {
		t.Errorf("samples = %d, probes = %d, want 5, 5", sp.Samples(), probes)
	}
	if NewSampler(r, 0).Every() != DefaultEvery {
		t.Errorf("zero period did not default to %d", DefaultEvery)
	}
}

// TestFoldViolations pins the one rule a snapshot's events,
// events_dropped and latency sections are folded by: the bound and drop
// count, which events are attributed (index below the count at
// detection, detected at or after the activation cycle), the untouched
// pre-activation events, the inline latency after the events, and the
// sorted invariants.
func TestFoldViolations(t *testing.T) {
	list := []ViolationEvent{
		{Invariant: "uo", Node: 1, DetectCycle: 100},
		{Invariant: "cc", Node: 2, DetectCycle: 300, Detail: "cet epoch overlap"},
	}
	// Fill the list past the bound with events detected before the
	// activation below, so attribution leaves them alone; the last one
	// lands beyond the bound.
	for len(list) <= DefaultMaxEvents {
		list = append(list, ViolationEvent{Invariant: "uo", Node: 0, DetectCycle: 10})
	}
	list[DefaultMaxEvents-1].DetectCycle = 500 // at or after activation, but found after detection
	event := func(i int) ViolationEvent { return list[i] }

	var snap Snapshot
	snap.FoldViolations(len(list), event, Attribution{InjectCycle: 40, Violations: DefaultMaxEvents - 1, Inline: "uo", InlineLatency: 7})
	if len(snap.Events) != DefaultMaxEvents || snap.EventsDropped != 1 {
		t.Fatalf("events = %d dropped = %d, want %d, 1", len(snap.Events), snap.EventsDropped, DefaultMaxEvents)
	}
	if got := snap.Events[0]; got.InjectCycle != 40 || got.Latency != 60 {
		t.Errorf("event 0 = %+v, want inject 40 latency 60", got)
	}
	if got := snap.Events[1]; got.InjectCycle != 40 || got.Latency != 260 || got.Detail != "cet epoch overlap" {
		t.Errorf("event 1 = %+v, want inject 40 latency 260 via its detail", got)
	}
	if got := snap.Events[2]; got.InjectCycle != 0 || got.Latency != 0 {
		t.Errorf("pre-activation event = %+v, want unattributed", got)
	}
	if got := snap.Events[DefaultMaxEvents-1]; got.InjectCycle != 0 || got.Latency != 0 {
		t.Errorf("event found after detection = %+v, want unattributed", got)
	}
	if len(snap.Latency) != 2 || snap.Latency[0].Invariant != "cc" || snap.Latency[1].Invariant != "uo" {
		t.Fatalf("latency invariants = %+v, want [cc uo]", snap.Latency)
	}
	if got := snap.Latency[1]; !reflect.DeepEqual(got.Values, []float64{60, 7}) || got.N != 2 || got.MaxCyc != 60 {
		t.Errorf("uo latency = %+v, want values [60 7] (events first, then the inline one)", got)
	}

	// Without an activation cycle nothing is attributed, and a clean
	// run folds to empty sections.
	snap.FoldViolations(2, event, Attribution{Violations: 2})
	if len(snap.Events) != 2 || snap.EventsDropped != 0 || snap.Latency != nil || snap.Events[0].Latency != 0 {
		t.Errorf("unattributed fold = %+v", snap)
	}
	snap.FoldViolations(0, event, Attribution{})
	if snap.Events != nil || snap.EventsDropped != 0 || snap.Latency != nil {
		t.Errorf("clean fold = %+v, want empty sections", snap)
	}
}

// buildSnapshot assembles a snapshot with every feature in play:
// scalars, vectors, tracked series, events, and latency samples.
func buildSnapshot(cycle uint64) *Snapshot {
	r := NewRegistry()
	c := r.CounterVec("proc.ops", "ops retired", "node", NodeLabels(2))
	q := r.Track(r.Gauge("checker.queue", "inform queue depth"))
	c.Add(0, 10)
	c.Add(1, 20)
	for i := 1; i <= 3; i++ {
		q.Set(0, int64(i))
		r.Sample(uint64(100 * i))
	}
	snap := r.Snapshot(cycle)
	snap.FoldViolations(1, func(int) ViolationEvent {
		return ViolationEvent{Invariant: "coherence-epoch-overlap", Node: 1, Addr: 0x80,
			DetectCycle: 150, Detail: "cet epoch overlap"}
	}, Attribution{InjectCycle: 120, Violations: 1})
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
	if got.Events[0].Latency != 30 {
		t.Errorf("event latency = %d, want 30", got.Events[0].Latency)
	}
	if len(got.Latency) != 1 || got.Latency[0].Invariant != "coherence-epoch-overlap" {
		t.Errorf("latency snapshot = %+v", got.Latency)
	}
}

func TestSnapshotEncodersDeterministic(t *testing.T) {
	// Two independently built but identical registries must encode
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
			t.Errorf("%s encoding differs between identical registries", name)
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

// TestRegistryUpdateSteadyStateAllocFree pins the metric update path —
// the only telemetry code on simulator hot paths — to zero allocations.
func TestRegistryUpdateSteadyStateAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c", "", "node", NodeLabels(8))
	g := r.Gauge("g", "")
	i := 0
	step := func() {
		c.Inc(i & 7)
		c.Add((i+1)&7, 3)
		g.Set(0, int64(i))
		i++
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
		t.Errorf("registry update steady state: %.0f allocs in 2000 steps, want 0", allocs)
	}
}

// newLoadedRegistry builds a registry shaped like a real 8-node system:
// probed vectors, tracked rings, and a sampler — the steady-state
// configuration whose tick must not allocate.
func newLoadedRegistry() (*Registry, *Sampler) {
	r := NewRegistry()
	var shadow [8]uint64 // stands in for live Stats() structs
	for _, name := range []string{"proc.ops", "cache.l1_misses", "checker.informs"} {
		m := r.Track(r.CounterVec(name, "", "node", NodeLabels(8)))
		r.AddProbe(func() {
			for i := range shadow {
				shadow[i] += uint64(i)
				m.Set(i, int64(shadow[i]))
			}
		})
	}
	depth := r.Track(r.GaugeVec("checker.met_queue_depth", "", "node", NodeLabels(8)))
	r.AddProbe(func() {
		for i := 0; i < 8; i++ {
			depth.Set(i, int64(i))
		}
	})
	return r, NewSampler(r, 1)
}

// TestSamplerTickSteadyStateAllocFree pins the whole sampling tick —
// probe refresh plus ring append, including ring wrap-around — to zero
// allocations.
func TestSamplerTickSteadyStateAllocFree(t *testing.T) {
	r, sp := newLoadedRegistry()
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
	if got := r.Series()[0].Len(); got != DefaultSeriesCap {
		t.Fatalf("ring not saturated: len %d, want %d", got, DefaultSeriesCap)
	}
}

func BenchmarkRegistryUpdate(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("c", "", "node", NodeLabels(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(i & 7)
	}
}

func BenchmarkSamplerTick(b *testing.B) {
	_, sp := newLoadedRegistry()
	for i := 0; i < DefaultSeriesCap+16; i++ {
		sp.Tick(sim.Cycle(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Tick(sim.Cycle(i))
	}
}
