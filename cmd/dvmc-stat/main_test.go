package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc"
	"dvmc/internal/span"
	"dvmc/internal/telemetry"
)

// runStat runs dvmc-stat in process with the given arguments, returning
// exit code, stdout, and stderr.
func runStat(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// snapshotFile runs a 4-node system with telemetry on and writes its
// snapshot; starved links make the checkers record violations.
func snapshotFile(t *testing.T, linkGBps float64) string {
	t.Helper()
	cfg := dvmc.ScaledConfig().WithNodes(4).WithLinkGBps(linkGBps).WithTelemetry(dvmc.TelemetryOn())
	sys, err := dvmc.NewSystem(cfg, dvmc.OLTP())
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(20, 1_000_000)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := telemetry.WriteSnapshotFile(sys.TelemetrySnapshot(), path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the tool's contract on every subcommand: 0 for
// help or a clean snapshot, 1 for a usage or I/O error, 2 for a
// snapshot that records violations (after the output is written).
func TestExitCodes(t *testing.T) {
	clean, violated := snapshotFile(t, 2.5), snapshotFile(t, 0.05)
	absent := filepath.Join(t.TempDir(), "absent.json")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"no subcommand", nil, 1, "", "usage:"},
		{"help", []string{"-h"}, 0, "", "usage:"},
		{"subcommand help", []string{"top", "-h"}, 0, "", "-kind"},
		{"unknown subcommand", []string{"plot", clean}, 1, "", `unknown subcommand "plot"`},
		{"unknown flag", []string{"dump", "-nope", clean}, 1, "", "flag provided but not defined"},
		{"no source", []string{"dump"}, 1, "", "need exactly one snapshot source"},
		{"two sources", []string{"top", clean, clean}, 1, "", "need exactly one snapshot source"},
		{"missing file", []string{"series", absent}, 1, "", absent},
		{"unknown format", []string{"dump", "-format", "xml", clean}, 1, "", `unknown format "xml"`},
		{"unknown kind", []string{"top", "-kind", "histogram", clean}, 1, "", `unknown kind "histogram"`},
		{"unknown series", []string{"series", "-metric", "no.such", clean}, 1, "", `no tracked series named "no.such"`},
		{"timeline source", []string{"timeline"}, 1, "", "need exactly one span dump source"},
		{"timeline three sources", []string{"timeline", clean, clean, clean}, 1, "", "at most one snapshot source"},
		{"timeline two stdin", []string{"timeline", "-", "-"}, 1, "", "only one source can be '-'"},
		{"dump", []string{"dump", clean}, 0, "cycle", ""},
		{"dump prom", []string{"dump", "-format", "prom", clean}, 0, "# TYPE", ""},
		{"series", []string{"series", clean}, 0, "", ""},
		{"top", []string{"top", "-n", "3", clean}, 0, "top 3 metrics", ""},
		{"top negative", []string{"top", "-n", "-1", clean}, 0, "top 0 metrics", ""},
		{"violations dump", []string{"dump", violated}, 2, "cycle", "violation event(s)"},
		{"violations top", []string{"top", violated}, 2, "top 10 metrics", "violation event(s)"},
	} {
		code, stdout, stderr := runStat(t, tc.args...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d; stderr: %s", tc.name, code, tc.code, stderr)
		}
		if !strings.Contains(stdout, tc.stdout) {
			t.Errorf("%s: stdout lacks %q:\n%s", tc.name, tc.stdout, stdout)
		}
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.name, tc.stderr, stderr)
		}
		if tc.code == 0 && tc.stderr == "" && stderr != "" {
			t.Errorf("%s: clean run wrote to stderr: %s", tc.name, stderr)
		}
	}
}

// TestDumpMalformedSnapshotExitsTwo is the regression test for the
// malformed-snapshot contract: a snapshot that exists but does not
// decode must exit 2 (failed artifact, not usage error) and the error
// must name the offending source, so a sweep over many files points at
// the bad one.
func TestDumpMalformedSnapshotExitsTwo(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage.json":   "{not json at all",
		"truncated.json": `{"cycle": 12, "metrics": [{"name": "x"`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := runStat(t, "dump", path)
		if code != 2 {
			t.Errorf("dump %s: exit %d, want 2; stderr: %s", name, code, stderr)
		}
		if !strings.Contains(stderr, path) {
			t.Errorf("dump %s: stderr does not name the source %q: %s", name, path, stderr)
		}
		if !strings.Contains(stderr, "decoding snapshot") {
			t.Errorf("dump %s: stderr lacks decode context: %s", name, stderr)
		}
	}
}

// TestDumpMissingFileExitsOne pins the other side of the contract: an
// I/O error (the file does not exist) stays exit 1.
func TestDumpMissingFileExitsOne(t *testing.T) {
	code, _, stderr := runStat(t, "dump", filepath.Join(t.TempDir(), "absent.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
}

// TestTimelineRendersStrictChromeJSON runs a small system end-to-end:
// record spans, render the dump through the timeline subcommand, and
// strict-decode the Chrome trace JSON it emits.
func TestTimelineRendersStrictChromeJSON(t *testing.T) {
	cfg := dvmc.ScaledConfig().WithNodes(4).WithSpans(dvmc.SpansOn())
	w, err := dvmc.WorkloadByName("oltp")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dvmc.NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunCycles(8192)
	dump, err := sys.SpanBytes()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.spans")
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runStat(t, "timeline", path)
	if code != 0 {
		t.Fatalf("timeline: exit %d; stderr: %s", code, stderr)
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields()
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("timeline output is not strict Chrome JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("timeline produced no events")
	}
}

// TestTimelineCorruptDumpExitsTwo: a span dump with a flipped byte
// fails its CRC and must exit 2 naming the source.
func TestTimelineCorruptDumpExitsTwo(t *testing.T) {
	cfg := dvmc.ScaledConfig().WithNodes(4).WithSpans(dvmc.SpansOn())
	w, err := dvmc.WorkloadByName("oltp")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dvmc.NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunCycles(4096)
	dump, err := sys.SpanBytes()
	if err != nil {
		t.Fatal(err)
	}
	dump[len(dump)/2] ^= 0x40
	path := filepath.Join(t.TempDir(), "corrupt.spans")
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runStat(t, "timeline", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, path) {
		t.Fatalf("stderr does not name the source: %s", stderr)
	}
}

// TestTimelineDrawsWorkSeries renders one run's spans together with its
// snapshot: each of the four work counters becomes a "C" counter track
// whose samples are the work done per sampling window, so they add up to
// the counter's growth over the sampled span of the run.
func TestTimelineDrawsWorkSeries(t *testing.T) {
	cfg := dvmc.ScaledConfig().WithNodes(4).WithSpans(dvmc.SpansOn()).WithTelemetry(dvmc.TelemetryOn())
	sys, err := dvmc.NewSystem(cfg, dvmc.OLTP())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunCycles(8192)
	dir := t.TempDir()
	spans, metrics := filepath.Join(dir, "run.spans"), filepath.Join(dir, "run.json")
	if err := (dvmc.Outputs{Spans: spans, Metrics: metrics}).Write(sys, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runStat(t, "timeline", spans, metrics)
	if code != 0 {
		t.Fatalf("timeline: exit %d; stderr: %s", code, stderr)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatal(err)
	}
	drawn := map[string]int64{}
	for _, e := range out.TraceEvents {
		if e.Ph != "C" {
			continue
		}
		for _, v := range e.Args {
			drawn[e.Name] += int64(v.(float64))
		}
	}
	snap := sys.TelemetrySnapshot()
	for _, name := range []string{"proc.ops_retired", "cache.transactions_issued", "net.bytes_total", "checker.informs_processed"} {
		var grew int64
		for _, sr := range snap.Series {
			if sr.Name == name {
				grew += sr.Values[len(sr.Values)-1] - sr.Values[0]
			}
		}
		if grew == 0 || drawn[name] != grew {
			t.Errorf("%s: counter track adds up to %d, the series grew %d", name, drawn[name], grew)
		}
	}
}

// TestTimelineRefusesPhaseDump: a dump holding a span of a family this
// build does not define — the per-component phase slices older builds
// recorded — exits 2 naming the source, instead of rendering nameless
// spans.
func TestTimelineRefusesPhaseDump(t *testing.T) {
	dump, err := span.Encode(span.Meta{Nodes: 4}, []span.Span{
		{ID: 0, Family: span.FamilyTxn, Node: 1, Addr: 0x40, Start: 10, End: 20, Outcome: span.OutcomeDone},
		{ID: 1, Family: 3, Node: -1, Start: 0, End: 1024, Outcome: 8,
			Events: []span.Event{{Label: span.LabelWork, Time: 1024, A: 900}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "phase.spans")
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runStat(t, "timeline", path)
	if code != 2 || stdout != "" || !strings.Contains(stderr, path) || !strings.Contains(stderr, "unknown span family 3") {
		t.Fatalf("exit %d, want 2 naming %s and the family; stdout %q, stderr: %s", code, path, stdout, stderr)
	}
}
