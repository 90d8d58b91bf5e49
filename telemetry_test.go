package dvmc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

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
	snap := sys.TelemetrySnapshot()
	byName := map[string]*telemetry.MetricSnapshot{}
	for i := range snap.Metrics {
		byName[snap.Metrics[i].Name] = &snap.Metrics[i]
	}
	for _, name := range []string{
		"proc.ops_retired", "cache.l1_misses", "checker.informs",
		"checker.met_queue_depth", "net.bytes", "sn.checkpoints",
	} {
		m := byName[name]
		if m == nil {
			t.Errorf("metric %q missing", name)
			continue
		}
		if m.Label == "node" && len(m.Values) != cfg.Nodes {
			t.Errorf("%s has %d slots, want %d", name, len(m.Values), cfg.Nodes)
		}
	}
	if byName["proc.ops_retired"].Total() == 0 {
		t.Errorf("proc.ops_retired stayed zero over a 50-txn run")
	}
	if len(snap.Series) == 0 {
		t.Fatal("no tracked series")
	}
	for _, s := range snap.Series[:1] {
		if len(s.Cycles) < 2 {
			t.Errorf("series %s[%s] has %d samples, want several", s.Name, s.LabelValue, len(s.Cycles))
			continue
		}
		if stride := s.Cycles[1] - s.Cycles[0]; stride != 128 {
			t.Errorf("sampling stride = %d cycles, want 128", stride)
		}
	}
}

// TestTelemetryBuiltWhenRead: a system schedules a sampler in NewSystem
// only when telemetry is enabled, and reads its metrics from the live
// components when a snapshot is taken, so sampling changes no value a
// snapshot reads.
func TestTelemetryBuiltWhenRead(t *testing.T) {
	var metrics [2][]telemetry.MetricSnapshot
	for i, tc := range []TelemetryConfig{{}, TelemetryOn()} {
		sys, err := NewSystem(smallConfig().WithTelemetry(tc), smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if scheduled := sys.sampler != nil; scheduled != tc.Enabled {
			t.Errorf("telemetry enabled=%v: sampler scheduled by NewSystem = %v", tc.Enabled, scheduled)
		}
		if _, err := sys.Run(20, 2_000_000); err != nil {
			t.Fatal(err)
		}
		metrics[i] = sys.TelemetrySnapshot().Metrics
	}
	if !reflect.DeepEqual(metrics[0], metrics[1]) {
		t.Errorf("the sampled run's snapshot reads other metric values than the unsampled run's")
	}
}

// TestTelemetryOffBuildsNoRing: with telemetry off no sampler runs, so
// no series ring is ever allocated. Every tracked series is still listed
// with no samples, and the snapshot encodes to the bytes the eagerly
// allocated rings gave (testdata/golden_telemetry_off.json was written by
// the commit before rings became lazy; since then it has gained entries,
// for newly registered metrics and series, and one MET inform moved from
// informs_processed to met_queue_depth, with informs_processed's help
// reworded, when the end of a run stopped folding unjudged informs).
func TestTelemetryOffBuildsNoRing(t *testing.T) {
	sys, err := NewSystem(smallConfig(), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(20, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if sys.sampler != nil {
		t.Fatal("telemetry off scheduled a sampler")
	}
	snap := sys.TelemetrySnapshot()
	if len(snap.Series) == 0 {
		t.Fatal("no tracked series")
	}
	for _, s := range snap.Series {
		if s.Cycles != nil || s.Values != nil {
			t.Errorf("series %s[%s]: samples with telemetry off", s.Name, s.LabelValue)
		}
	}
	var got bytes.Buffer
	if err := snap.EncodeJSON(&got); err != nil {
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

// TestInjectionPopulatesLatencyHistogram drives detectable faults
// through the injection harness and requires the snapshot's latency
// section to be exactly the harness's own verdict: one observation, its
// Latency under its DetectionKind. The LSQ fault is caught inline by UO
// replay, which never reaches the violation list.
func TestInjectionPopulatesLatencyHistogram(t *testing.T) {
	cfg := smallConfig().WithTelemetry(TelemetryOn())
	for _, inj := range []Injection{
		{Kind: FaultMsgDrop, Node: 1, Cycle: 4000},
		{Kind: FaultLSQValue, Node: 0, Cycle: 4000},
	} {
		_, res, sys, err := RunJudged(cfg, smallWorkload(), &inj, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Errorf("%v: fault not detected (masked=%v)", inj.Kind, res.Masked)
			continue
		}
		got := make([]string, 0, 1)
		for _, l := range sys.TelemetrySnapshot().Latency {
			got = append(got, fmt.Sprintf("%s %v", l.Invariant, l.Values))
		}
		if want := fmt.Sprintf("%s [%d]", res.DetectionKind, res.Latency); !slices.Equal(got, []string{want}) {
			t.Errorf("%v: latency section %q, want exactly [%q]", inj.Kind, got, want)
		}
	}
}
