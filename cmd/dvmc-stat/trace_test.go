package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc"
	"dvmc/internal/consistency"
	"dvmc/internal/hash"
	"dvmc/internal/telemetry"
	"dvmc/internal/trace"
)

// recordTrace runs a 20-transaction simulation in process and returns its
// trace, the bytes `dvmc-sim -txns 20 -trace-out` writes for cfg.
func recordTrace(t *testing.T, cfg dvmc.Config) []byte {
	t.Helper()
	sys, err := dvmc.NewSystem(cfg.WithTrace(dvmc.TraceOn()), dvmc.OLTP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(20, 100_000_000); err != nil {
		t.Fatal(err)
	}
	data, err := sys.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTraceExitCodes pins check's and info's contract for every way of
// reading a trace: 0 for a clean one, 1 for usage and I/O errors, 2 for
// an oracle violation and — with the position of the damage on stderr —
// for bytes that are not a decodable trace.
func TestTraceExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	clean := recordTrace(t, dvmc.ScaledConfig().WithNodes(2))
	cleanPath := file("clean.trc", clean)
	// A store that performs without ever committing: the oracle's R4.
	meta := trace.Meta{Version: trace.Version, Nodes: 1, Model: consistency.TSO}
	bad, err := trace.Encode(meta, []trace.Event{{
		Kind: trace.EvPerform, Class: consistency.Store, Model: consistency.TSO, Seq: 1, Addr: 8, Val: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	violating := file("violating.trc", bad)
	// A window from the flight-recorder mode of earlier versions: header
	// flag bit 0, which no reader knows now.
	window, err := trace.Encode(meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	window[len(trace.Magic)+1] = 1
	truncated := file("truncated.trc", window)
	torn := file("torn.trc", clean[:len(clean)/2])
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x41
	// A CRC-valid header declaring 300 nodes: `info` used to loop on it forever.
	sealed := func(body string) []byte {
		crc := hash.Sum([]byte(body))
		return append([]byte(body), byte(crc), byte(crc>>8))
	}
	hostile := file("hostile.trc", sealed("DVMCTR\x02\x00\xac\x02\x02\x00\x07\x00\x00")) // header, sentinel, count 0
	// A whole version-1 trace, from before the annotation records: one
	// store commit (its tag in the two-bit-kind layout) and the footer.
	v1 := file("v1.trc", sealed("DVMCTR\x01\x00\x01\x02\x00\x07\x09\x00\x02\x01\x08\x01\x00\x00\x01"))

	for _, sub := range [][]string{{"check"}, {"info"}} {
		checks := sub[0] == "check"
		for _, tc := range []struct {
			name   string
			stdin  []byte
			path   string // "" for no path argument
			code   int
			stderr string
		}{
			{"clean file", nil, cleanPath, 0, ""},
			{"clean stdin", clean, "-", 0, ""},
			{"no path", nil, "", 1, "exactly one trace path"},
			{"missing file", nil, filepath.Join(dir, "absent.trc"), 1, "no such file"},
			{"a URL is no trace source", nil, "http://127.0.0.1:1/t.trc", 1, "no such file"},
			{"violation", nil, violating, map[bool]int{true: 2, false: 0}[checks], ""},
			{"truncated window", nil, truncated, 2, "offset 7: unknown header flags 0x01"},
			{"torn tail", nil, torn, 2, "offset "},
			{"flipped byte on stdin", flipped, "-", 2, "offset "},
			{"hostile node count", nil, hostile, 2, "offset 8: node count 300"},
			{"version 1", nil, v1, 2, "offset 6: unsupported version 1 (want 2)"},
			{"not a trace", []byte("not a trace"), "-", 2, "bad magic"},
			{"empty stdin", nil, "-", 2, "bad magic"},
		} {
			args := append([]string(nil), sub...)
			if tc.path != "" {
				args = append(args, tc.path)
			}
			code, stdout, stderr := runStdin(tc.stdin, args...)
			if code != tc.code || !strings.Contains(stderr, tc.stderr) {
				t.Errorf("%s, %s: exit %d, stderr %q; want exit %d and stderr containing %q",
					strings.Join(sub, " "), tc.name, code, stderr, tc.code, tc.stderr)
			}
			if code == 0 && stdout == "" {
				t.Errorf("%s, %s: exit 0 but nothing on stdout", strings.Join(sub, " "), tc.name)
			}
			if checks && tc.name == "violation" && !strings.Contains(stdout, "verdict: 1 violations") {
				t.Errorf("%s, violation: stdout %q names no verdict", strings.Join(sub, " "), stdout)
			}
		}
	}
}

// frontierPeak returns the stream_frontier_max gauge of a check snapshot.
func frontierPeak(snap *telemetry.Snapshot) int64 {
	for i := range snap.Metrics {
		if m := &snap.Metrics[i]; m.Name == "stream_frontier_max" {
			return m.Total()
		}
	}
	return 0
}

// TestRecordToStdoutPipesIntoCheck is the README's pipeline — a
// snooping/RMO run's trace, made in process and checked from stdin —
// with the gauges the check leaves behind.
func TestRecordToStdoutPipesIntoCheck(t *testing.T) {
	recorded := recordTrace(t, dvmc.ScaledConfig().WithNodes(4).WithModel(dvmc.RMO).WithProtocol(dvmc.Snooping))
	code, stdout, stderr := runStdin(recorded, "check", "-json", "-")
	if code != 0 || !strings.Contains(stdout, `"violations": []`) {
		t.Fatalf("check -json -: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.Contains(stdout, `"stream"`) {
		t.Errorf("check -json - prints an engine section:\n%s", stdout)
	}

	metrics := filepath.Join(t.TempDir(), "check.metrics.json")
	code, withMetrics, stderr := runStdin(recorded, "check", "-json", "-metrics-out", metrics, "-")
	if code != 0 || withMetrics != stdout {
		t.Fatalf("check -json -metrics-out F -: exit %d, stdout differs from plain -json: %v\nstderr:\n%s", code, withMetrics != stdout, stderr)
	}
	f, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := telemetry.DecodeSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if peak := frontierPeak(snap); peak <= 0 {
		t.Errorf("stream_frontier_max in the -metrics-out snapshot is %d, want > 0", peak)
	}
}

// TestCheckMetricsToStdout: `check -metrics-out -` makes the snapshot
// all of stdout, decodable from byte 0, and moves the report to stderr,
// so `dvmc-stat check -metrics-out - t.trc | dvmc-stat dump -` reads
// the checker's gauges.
func TestCheckMetricsToStdout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, recordTrace(t, dvmc.ScaledConfig().WithNodes(4)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, plain, _ := runStat(t, "check", path)
	if code != 0 {
		t.Fatalf("check: exit %d", code)
	}
	code, stdout, stderr := runStat(t, "check", "-metrics-out", "-", path)
	if code != 0 || stderr != plain {
		t.Fatalf("check -metrics-out -: exit %d, stderr is not check's report:\n%s", code, stderr)
	}
	snap, err := telemetry.DecodeSnapshot(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("stdout is not a snapshot from byte 0 (%v):\n%.200s", err, stdout)
	}
	if peak := frontierPeak(snap); peak <= 0 {
		t.Errorf("stream_frontier_max is %d, want > 0", peak)
	}
	code, dumped, stderr := runStdin([]byte(stdout), "dump", "-")
	if code != 0 || !strings.Contains(dumped, "stream_frontier_max") {
		t.Errorf("dump -: exit %d, stdout lacks stream_frontier_max:\n%s\nstderr: %s", code, dumped, stderr)
	}
}

// TestInfoCountsTheFaultLifecycle: info reports a trace's annotation
// records beside its commits and performs, in text and in -json. The
// committed nested-recovery reproducer restores one checkpoint twice.
func TestInfoCountsTheFaultLifecycle(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "fuzz", "testdata", "corpus", "masked-nested-recovery-tolerated.trc")
	code, stdout, stderr := runStat(t, "info", path)
	if want := "events: 76 commits, 71 performs, 2 recovery markers, 1 checkpoints, 0 violations, 1 faults"; code != 0 || !strings.Contains(stdout, want) {
		t.Fatalf("info: exit %d, stdout lacks %q:\n%s%s", code, want, stdout, stderr)
	}
	code, stdout, stderr = runStat(t, "info", "-json", path)
	var sum infoJSON
	if err := json.Unmarshal([]byte(stdout), &sum); code != 0 || err != nil {
		t.Fatalf("info -json: exit %d, %v\n%s", code, err, stderr)
	}
	if sum.Recovers != 2 || sum.Checkpoints != 1 || sum.Violations != 0 || sum.Faults != 1 || sum.Events != 151 {
		t.Errorf("info -json: %+v", sum)
	}
}
