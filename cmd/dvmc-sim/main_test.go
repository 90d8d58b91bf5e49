package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc"
	"dvmc/internal/span"
	"dvmc/internal/telemetry"
)

func runSim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestStdoutIsDeterministic: the report is a pure function of flags and
// seed. The per-class bandwidth lines used to print in map order.
func TestStdoutIsDeterministic(t *testing.T) {
	args := []string{"-workload", "oltp", "-model", "TSO", "-txns", "40"}
	code, first, stderr := runSim(args...)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	if n := strings.Count(first, "B/cycle on hottest link"); n < 3 {
		t.Fatalf("expected at least 3 per-class bandwidth lines, got %d:\n%s", n, first)
	}
	for i := 0; i < 4; i++ {
		if _, again, _ := runSim(args...); again != first {
			t.Fatalf("run %d printed a different report:\n--- first\n%s--- again\n%s", i+2, first, again)
		}
	}
	order := []string{"coherence", "inform", "safetynet", "replay"}
	at := -1
	for _, cl := range order {
		i := strings.Index(first, "  "+cl)
		if i < 0 {
			continue
		}
		if i < at {
			t.Errorf("class %s printed out of order:\n%s", cl, first)
		}
		at = i
	}
}

// TestExitCodes pins the tool's contract: 0 for a clean run or help, 1
// for a usage or I/O error (named on stderr), 2 for a run whose checkers
// recorded violations. A starved interconnect makes the
// operation-timeout watchdog fire.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	small := []string{"-nodes", "4", "-txns", "20"}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"clean", small, 0, "violations:     0", ""},
		{"help", []string{"-h"}, 0, "", "-workload"},
		{"unknown flag", []string{"-nope"}, 1, "", "flag provided but not defined"},
		{"argument", []string{"oltp"}, 1, "", `unexpected argument "oltp"`},
		{"model", []string{"-model", "XC"}, 1, "", "dvmc-sim: "},
		{"protocol", []string{"-protocol", "ring"}, 1, "", "dvmc-sim: "},
		{"workload", []string{"-workload", "nope"}, 1, "", "dvmc-sim: "},
		{"nodes", []string{"-nodes", "0"}, 1, "", "dvmc-sim: assemble: "},
		{"budget", []string{"-nodes", "4", "-txns", "20", "-max-cycles", "100"}, 1, "", "dvmc-sim: run: "},
		{"metrics-out", append([]string{"-metrics-out", filepath.Join(dir, "no", "such", "dir.json")}, small...), 1, "", "dvmc-sim: open " + filepath.Join(dir, "no", "such", "dir.json")},
		{"spans-out", append([]string{"-spans-out", filepath.Join(dir, "no", "such", "dir.spans")}, small...), 1, "", "dvmc-sim: "},
		{"trace-out", append([]string{"-trace-out", filepath.Join(dir, "no", "such", "dir.trc")}, small...), 1, "", "dvmc-sim: "},
		{"two stdout outputs", append([]string{"-metrics-out", "-", "-trace-out", "-"}, small...), 1, "", "only one of -metrics-out, -spans-out and -trace-out can be '-'"},
		{"http", append([]string{"-http", "127.0.0.1:0"}, small...), 0, "dvmc-sim: serving /metrics and /debug/pprof/ on 127.0.0.1:", ""},
		{"http bind", append([]string{"-http", busy.Addr().String()}, small...), 1, "", "dvmc-sim: http: "},
		{"violations", []string{"-nodes", "4", "-txns", "20", "-link", "0.05"}, 2, "operation-timeout", ""},
	} {
		code, stdout, stderr := runSim(tc.args...)
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

// TestMetricsToStdout: -metrics-out - makes the JSON snapshot all of
// stdout, so dvmc-stat can read it from a pipe; the report goes to
// stderr.
func TestMetricsToStdout(t *testing.T) {
	code, stdout, stderr := runSim("-nodes", "4", "-txns", "20", "-metrics-out", "-")
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	snap, err := telemetry.DecodeSnapshot(strings.NewReader(stdout))
	if err != nil || len(snap.Metrics) == 0 {
		t.Fatalf("stdout is not a snapshot from byte 0 (%v):\n%.200s", err, stdout)
	}
	if !strings.Contains(stderr, "violations:     0") || !strings.Contains(stderr, "telemetry snapshot written to stdout") {
		t.Errorf("report missing from stderr:\n%s", stderr)
	}
	if _, err := os.Stat("-"); err == nil {
		t.Errorf("-metrics-out - created a file named -")
	}
}

// TestMetricsOutIsJSON: the snapshot file is JSON whatever its name
// says; dvmc-stat dump -format renders the other forms.
func TestMetricsOutIsJSON(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"run.prom", "run.csv", "run.series.csv"} {
		path := filepath.Join(dir, name)
		if code, _, stderr := runSim("-nodes", "4", "-txns", "20", "-metrics-out", path); code != 0 {
			t.Fatalf("-metrics-out %s: exit %d; stderr: %s", name, code, stderr)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = telemetry.DecodeSnapshot(f)
		f.Close()
		if err != nil {
			t.Errorf("-metrics-out %s wrote no JSON snapshot: %v", name, err)
		}
	}
}

// TestArtifactsToStdout: -trace-out - writes exactly the trace an
// in-process run records (Run, then TraceBytes), and
// -spans-out - writes a span dump; either way stdout holds the artifact
// alone and the report, with the artifact's line, goes to stderr.
func TestArtifactsToStdout(t *testing.T) {
	cfg := dvmc.ScaledConfig().WithNodes(4).WithModel(dvmc.RMO).WithTrace(dvmc.TraceOn())
	sys, err := dvmc.NewSystem(cfg, dvmc.OLTP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(20, 100_000_000); err != nil {
		t.Fatal(err)
	}
	want, err := sys.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runSim("-nodes", "4", "-model", "RMO", "-txns", "20", "-trace-out", "-")
	if code != 0 || stdout != string(want) {
		t.Fatalf("-trace-out -: exit %d, %d bytes on stdout, want the %d-byte in-process trace; stderr: %s", code, len(stdout), len(want), stderr)
	}
	line := fmt.Sprintf("trace written to stdout (%d events, %d bytes)", sys.TraceStats().Events, len(want))
	if !strings.Contains(stderr, line) || !strings.Contains(stderr, "violations:     0") {
		t.Errorf("stderr lacks the report or %q:\n%s", line, stderr)
	}

	path := filepath.Join(t.TempDir(), "run.trc")
	code, stdout, _ = runSim("-nodes", "4", "-model", "RMO", "-txns", "20", "-trace-out", path)
	if got, err := os.ReadFile(path); code != 0 || err != nil || !bytes.Equal(got, want) {
		t.Errorf("-trace-out %s: exit %d, %v; file differs from the in-process trace", path, code, err)
	}
	if !strings.Contains(stdout, "trace written to "+path) {
		t.Errorf("report does not name the trace file:\n%s", stdout)
	}

	code, stdout, stderr = runSim("-nodes", "4", "-txns", "20", "-spans-out", "-")
	if code != 0 {
		t.Fatalf("-spans-out -: exit %d; stderr: %s", code, stderr)
	}
	if _, spans, err := span.Decode([]byte(stdout)); err != nil || len(spans) == 0 {
		t.Errorf("-spans-out -: stdout is not a span dump (%d spans, %v)", len(spans), err)
	}
	if !strings.Contains(stderr, "span dump written to stdout") {
		t.Errorf("stderr lacks the span line:\n%s", stderr)
	}
	if _, err := os.Stat("-"); err == nil {
		t.Errorf("-spans-out - created a file named -")
	}
}
