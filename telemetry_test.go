package dvmc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dvmc/internal/core"
	"dvmc/internal/par"
	"dvmc/internal/telemetry"
)

// telemetryDump runs one instrumented simulation and returns every
// rendered view (Prometheus, CSV, series CSV, JSON) concatenated — the
// strongest byte-level fingerprint of the telemetry subsystem.
func telemetryDump(t *testing.T, seed uint64, proto Protocol) []byte {
	t.Helper()
	tc := TelemetryOn()
	tc.Every = 256
	cfg := smallConfig().WithSeed(seed).WithProtocol(proto).WithTelemetry(tc)
	sys, err := NewSystem(cfg, smallWorkload())
	if err != nil {
		t.Fatalf("seed %d %v: %v", seed, proto, err)
	}
	if _, err := sys.Run(50, 2_000_000); err != nil {
		t.Fatalf("seed %d %v: %v", seed, proto, err)
	}
	sys.DrainCheckers()
	snap := sys.TelemetrySnapshot()
	var buf bytes.Buffer
	for _, enc := range []func() error{
		func() error { return snap.Prometheus(&buf) },
		func() error { return snap.CSV(&buf) },
		func() error { return snap.SeriesCSV(&buf) },
		func() error { return snap.EncodeJSON(&buf) },
	} {
		if err := enc(); err != nil {
			t.Fatalf("seed %d %v: encode: %v", seed, proto, err)
		}
	}
	return buf.Bytes()
}

type telemetryCombo struct {
	seed  uint64
	proto Protocol
}

func telemetryCombos() []telemetryCombo {
	var combos []telemetryCombo
	for _, seed := range []uint64{1, 2, 3} {
		for _, proto := range []Protocol{Directory, Snooping} {
			combos = append(combos, telemetryCombo{seed, proto})
		}
	}
	return combos
}

// TestTelemetryDumpsDeterministic is the telemetry determinism
// regression: for three seeds and both protocols, re-running the
// identical simulation must reproduce byte-identical Prometheus, CSV,
// series-CSV, and JSON dumps. A sampler that read anything but
// simulated state — the wall clock, map iteration order, scheduler
// timing — fails here.
func TestTelemetryDumpsDeterministic(t *testing.T) {
	for _, c := range telemetryCombos() {
		a := telemetryDump(t, c.seed, c.proto)
		b := telemetryDump(t, c.seed, c.proto)
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d %v: telemetry dumps differ between identical runs", c.seed, c.proto)
		}
		if len(a) == 0 {
			t.Errorf("seed %d %v: empty telemetry dump", c.seed, c.proto)
		}
	}
}

// TestTelemetryDumpsIdenticalAcrossWorkerCounts runs the seed×protocol
// matrix through the evaluation matrix's worker pool (internal/par) at
// several sizes and requires every combination's dump to match its
// serial reference. Each simulation is a sealed single-threaded machine, so
// host scheduling across pool workers must be invisible in the bytes.
func TestTelemetryDumpsIdenticalAcrossWorkerCounts(t *testing.T) {
	combos := telemetryCombos()
	serial := make([][]byte, len(combos))
	for i, c := range combos {
		serial[i] = telemetryDump(t, c.seed, c.proto)
	}
	for _, workers := range []int{2, 4} {
		got := make([][]byte, len(combos))
		par.For(len(combos), workers, func(i int) {
			got[i] = telemetryDump(t, combos[i].seed, combos[i].proto)
		})
		for i, c := range combos {
			if !bytes.Equal(got[i], serial[i]) {
				t.Errorf("workers=%d seed %d %v: dump differs from serial reference",
					workers, c.seed, c.proto)
			}
		}
	}
}

// TestTelemetrySnapshotShape sanity-checks the wired instrumentation:
// core metric families exist, per-node vectors have one slot per node,
// and tracked series carry samples at the configured period.
func TestTelemetrySnapshotShape(t *testing.T) {
	tc := TelemetryOn()
	tc.Every = 128
	cfg := smallConfig().WithTelemetry(tc)
	sys, err := NewSystem(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50, 2_000_000); err != nil {
		t.Fatal(err)
	}
	sys.DrainCheckers()
	reg := sys.Telemetry()
	for _, name := range []string{
		"proc.ops_retired", "cache.l1_misses", "checker.informs",
		"checker.met_queue_depth", "net.bytes", "sn.checkpoints",
	} {
		m := reg.Lookup(name)
		if m == nil {
			t.Errorf("metric %q not registered", name)
			continue
		}
		if m.Label() == "node" && m.Len() != cfg.Nodes {
			t.Errorf("%s has %d slots, want %d", name, m.Len(), cfg.Nodes)
		}
	}
	if reg.Lookup("proc.ops_retired").Total() == 0 {
		t.Errorf("proc.ops_retired stayed zero over a 50-txn run")
	}
	series := reg.Series()
	if len(series) == 0 {
		t.Fatal("no tracked series")
	}
	for _, s := range series[:1] {
		if s.Len() < 2 {
			t.Errorf("series %s has %d samples, want several", s.Metric().Name(), s.Len())
		}
		c0, _ := s.At(0)
		c1, _ := s.At(1)
		if c1-c0 != 128 {
			t.Errorf("sampling stride = %d cycles, want 128", c1-c0)
		}
	}
}

// TestTelemetryOffBuildsNoRing: with telemetry off the sampler never
// runs, so no series ring is ever allocated. Every series still reports
// its configured capacity and no samples, and the snapshot encodes to the
// bytes the eagerly allocated rings gave (testdata/golden_telemetry_off.json
// was written by the commit before rings became lazy; since then it has
// only gained entries, for newly registered metrics and series).
func TestTelemetryOffBuildsNoRing(t *testing.T) {
	sys, err := NewSystem(smallConfig(), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(20, 2_000_000); err != nil {
		t.Fatal(err)
	}
	sys.DrainCheckers()
	series := sys.Telemetry().Series()
	if len(series) == 0 {
		t.Fatal("no tracked series")
	}
	for _, s := range series {
		if s.Len() != 0 || s.Cap() != telemetry.DefaultSeriesCap {
			t.Errorf("%s[%s]: len/cap %d/%d, want 0/%d", s.Metric().Name(), s.LabelValue(), s.Len(), s.Cap(), telemetry.DefaultSeriesCap)
		}
		if ring := reflect.ValueOf(s).Elem(); !ring.FieldByName("cycles").IsNil() || !ring.FieldByName("vals").IsNil() {
			t.Errorf("%s[%s]: ring allocated with telemetry off", s.Metric().Name(), s.LabelValue())
		}
	}
	var got bytes.Buffer
	if err := sys.TelemetrySnapshot().EncodeJSON(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_telemetry_off.json")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("telemetry-off snapshot differs from %s", path)
	}
}

// TestCampaignLatencyByKind runs a small injection campaign and checks
// the per-invariant detection-latency aggregation: every detected fault
// lands in exactly one invariant's sample, and the samples render as
// histograms.
func TestCampaignLatencyByKind(t *testing.T) {
	cfg := smallConfig()
	camp, err := RunCampaign(cfg, Slashcode(), 30, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	_, detected, _, _ := camp.Counts()
	if detected == 0 {
		t.Skip("campaign detected nothing at this geometry")
	}
	lat := camp.LatencyByKind()
	if len(lat) == 0 {
		t.Fatalf("%d detections but no per-invariant latency samples", detected)
	}
	total := 0
	for _, l := range lat {
		if l.Sample.N() == 0 {
			t.Errorf("%v: empty sample", l.Kind)
		}
		total += l.Sample.N()
		if h := l.Sample.Histogram(8); len(h) == 0 {
			t.Errorf("%v: no histogram bins", l.Kind)
		}
		t.Logf("%-40v n=%d p50=%.0f p99=%.0f max=%.0f cycles",
			l.Kind, l.Sample.N(), l.Sample.Quantile(0.5), l.Sample.Quantile(0.99), l.Sample.Max())
	}
	if total != detected {
		t.Errorf("latency samples cover %d detections, campaign counted %d", total, detected)
	}
	for i := 1; i < len(lat); i++ {
		if lat[i-1].Kind.String() >= lat[i].Kind.String() {
			t.Errorf("LatencyByKind not sorted: %v before %v", lat[i-1].Kind, lat[i].Kind)
		}
	}
}

// TestInjectionPopulatesLatencyHistogram drives one detectable fault
// through the injection harness and requires the per-invariant
// detection-latency distribution to be populated and consistent with
// the harness's own latency measurement.
func TestInjectionPopulatesLatencyHistogram(t *testing.T) {
	cfg := smallConfig().WithTelemetry(TelemetryOn())
	inj := Injection{Kind: FaultMsgDrop, Node: 1, Cycle: 4000}
	res, sys, err := RunInjectionSystem(cfg, smallWorkload(), inj, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Skipf("fault not detected in this configuration (masked=%v)", res.Masked)
	}
	lat := sys.Telemetry().LatencyByInvariant()
	if len(lat) == 0 {
		t.Fatal("detected injection left no per-invariant latency samples")
	}
	name := res.DetectionKind.String()
	found := false
	for _, l := range lat {
		if l.Invariant == name {
			found = true
			if l.Sample.N() == 0 {
				t.Errorf("%s: empty latency sample", name)
			}
		}
	}
	// Inline LSQ-replay detections are recorded under UOMismatch even
	// though they never reach the violation sink.
	if !found && res.DetectionKind != core.UOMismatch {
		names := make([]string, len(lat))
		for i, l := range lat {
			names[i] = fmt.Sprintf("%s(n=%d)", l.Invariant, l.Sample.N())
		}
		t.Errorf("no latency sample for detection kind %q; have %v", name, names)
	}
}
