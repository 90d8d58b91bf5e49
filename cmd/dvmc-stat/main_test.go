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
)

// runStat runs dvmc-stat in process with the given arguments and an
// empty stdin, returning exit code, stdout, and stderr.
func runStat(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return runStdin(nil, args...)
}

// runStdin runs dvmc-stat in process reading stdin from the given bytes.
func runStdin(stdin []byte, args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, bytes.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
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
	if err := dvmc.WriteArtifact(path, nil, sys.TelemetrySnapshot().EncodeJSON); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestUsage pins the usage contract: help exits 0, an unknown
// subcommand or flag exits 1 — the flags of the trace oracle's deleted
// second engine among them. `record` is not a subcommand: dvmc-sim
// -trace-out writes traces.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 1, "usage:"},
		{[]string{"help"}, 0, "exit codes: 0 clean, 1 usage or I/O error, 2"},
		{[]string{"verify"}, 1, `unknown subcommand "verify"`},
		{[]string{"check", "-h"}, 0, "-metrics-out"},
		{[]string{"check", "-no-such-flag"}, 1, "flag provided but not defined"},
		{[]string{"check", "-stream", "x.trc"}, 1, "flag provided but not defined: -stream"},
		{[]string{"check", "-shards", "2", "x.trc"}, 1, "flag provided but not defined: -shards"},
		{[]string{"check", "-window", "8", "x.trc"}, 1, "flag provided but not defined: -window"},
		{[]string{"record", "-txns", "20", "-"}, 1, `unknown subcommand "record"`},
	} {
		code, _, stderr := runStat(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and stderr containing %q", tc.args, code, stderr, tc.code, tc.stderr)
		}
	}
}

// TestExitCodes pins the tool's contract on every subcommand: 0 for
// help or a clean snapshot, 1 for a usage or I/O error, 2 for a
// snapshot that records violations (after the output is written).
// TestUsage has the usage rows; TestTraceExitCodes has check's and
// info's rows per input.
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
		{"check two stdout artifacts", []string{"check", "-json", "-metrics-out", "-", "x.trc"}, 1, "", "only one of -json and -metrics-out can be '-' (stdout)"},
		{"subcommand help", []string{"top", "-h"}, 0, "", "-kind"},
		{"unknown subcommand", []string{"plot", clean}, 1, "", `unknown subcommand "plot"`},
		{"unknown flag", []string{"dump", "-nope", clean}, 1, "", "flag provided but not defined"},
		{"no source", []string{"dump"}, 1, "", "need exactly one snapshot source"},
		{"two sources", []string{"top", clean, clean}, 1, "", "need exactly one snapshot source"},
		{"missing file", []string{"series", absent}, 1, "", absent},
		{"unknown format", []string{"dump", "-format", "xml", clean}, 1, "", `unknown format "xml"`},
		{"unknown kind", []string{"top", "-kind", "histogram", clean}, 1, "", `unknown kind "histogram"`},
		{"unknown series", []string{"series", "-metric", "no.such", clean}, 1, "", `no tracked series named "no.such"`},
		{"timeline source", []string{"timeline"}, 1, "", "need one to three sources"},
		{"timeline four sources", []string{"timeline", clean, clean, clean, clean}, 1, "", "need one to three sources"},
		{"timeline two snapshots", []string{"timeline", clean, clean}, 1, "", "is a second snapshot"},
		{"timeline no artifact", []string{"timeline", "-"}, 2, "", "-: decoding source: not a span dump, trace or snapshot"},
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
// decode — a whole snapshot with bytes after it included — must exit 2
// (failed artifact, not usage error) and the error must name the
// offending source, so a sweep over many files points at the bad one.
func TestDumpMalformedSnapshotExitsTwo(t *testing.T) {
	dir := t.TempDir()
	snap, err := os.ReadFile(snapshotFile(t, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		"garbage.json":   "{not json at all",
		"truncated.json": `{"cycle": 12, "metrics": [{"name": "x"`,
		// What `-metrics-out -` printed beside a report before the report
		// moved to stderr: a snapshot with text after it.
		"report.json":       string(snap) + "verdict: clean — the trace satisfies the recorded consistency model\n",
		"garbage-tail.json": string(snap) + "garbage{",
		"two.json":          string(snap) + string(snap),
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

// timelineEvent is one rendered trace event, as a test reads it.
type timelineEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Args map[string]any `json:"args"`
}

// renderTimeline runs timeline on the sources and decodes its output.
func renderTimeline(t *testing.T, sources ...string) []timelineEvent {
	t.Helper()
	code, stdout, stderr := runStat(t, append([]string{"timeline"}, sources...)...)
	if code != 0 {
		t.Fatalf("timeline %v: exit %d; stderr: %s", sources, code, stderr)
	}
	var out struct {
		TraceEvents []timelineEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatal(err)
	}
	return out.TraceEvents
}

// TestTimelineExplainsCommittedReproducer renders a committed fuzz
// reproducer's trace alone: its fault track is the EXPERIMENTS.md
// walkthrough — the wb-corrupt fault armed and fired at cycle 10, the
// uniprocessor-ordering store mismatch that caught it at 168, and the
// slice closing as detected.
func TestTimelineExplainsCommittedReproducer(t *testing.T) {
	events := renderTimeline(t, filepath.Join("..", "..", "internal", "fuzz", "testdata", "corpus", "detect-wb-corrupt-tso.trc"))
	want := map[string]timelineEvent{
		"fault wb-corrupt":                     {Ph: "X", Ts: 10, Dur: 160},
		"fired":                                {Ph: "i", Ts: 10},
		"uniprocessor-ordering-store-mismatch": {Ph: "i", Ts: 168},
	}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(events), len(want), events)
	}
	for _, e := range events {
		w, ok := want[e.Name]
		if !ok || e.Ph != w.Ph || e.Pid != faultPid || e.Ts != w.Ts || e.Dur != w.Dur {
			t.Errorf("event %+v, want %+v on the fault track", e, w)
		}
		if e.Ph == "X" && e.Args["outcome"] != "detected" {
			t.Errorf("fault slice outcome %v, want detected", e.Args["outcome"])
		}
	}
}

// TestTimelineJoinsThreeSources renders one injection run's span dump,
// trace and snapshot together, the same in any order of the sources:
// transaction slices, the fault track with its checkpoints, and the
// counter tracks.
func TestTimelineJoinsThreeSources(t *testing.T) {
	cfg := dvmc.ScaledConfig().WithNodes(4)
	dir := t.TempDir()
	out := dvmc.Outputs{Spans: filepath.Join(dir, "run.spans"), Trace: filepath.Join(dir, "run.trc"), Metrics: filepath.Join(dir, "run.json")}
	_, _, sys, err := dvmc.RunJudged(out.Observe(cfg), dvmc.OLTP(), &dvmc.Injection{Kind: dvmc.FaultWBDrop, Node: 1, Cycle: 3000}, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Write(sys, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runStat(t, "timeline", out.Spans, out.Trace, out.Metrics)
	if code != 0 && code != 2 { // 2: the snapshot records the fault's violations
		t.Fatalf("timeline: exit %d; stderr: %s", code, stderr)
	}
	if _, reordered, _ := runStat(t, "timeline", out.Metrics, out.Trace, out.Spans); reordered != stdout {
		t.Error("the timeline depends on the order of its sources")
	}
	var doc struct {
		TraceEvents []timelineEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Pid == int(span.FamilyTxn):
			seen["transaction"] = true
		case e.Ph == "X" && e.Name == "fault wb-drop":
			seen["fault"] = true
		case e.Name == "checkpoint":
			seen["checkpoint"] = true
		case e.Ph == "C":
			seen["counter"] = true
		}
	}
	for _, k := range []string{"transaction", "fault", "checkpoint", "counter"} {
		if !seen[k] {
			t.Errorf("no %s in the joined timeline", k)
		}
	}
}
