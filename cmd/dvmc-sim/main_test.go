package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{"metrics-out", append([]string{"-metrics-out", filepath.Join(dir, "no", "such", "dir.json")}, small...), 1, "", "dvmc-sim: telemetry: "},
		{"spans-out", append([]string{"-spans-out", filepath.Join(dir, "no", "such", "dir.spans")}, small...), 1, "", "dvmc-sim: "},
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

// TestMetricsToStdout: -metrics-out - writes the JSON snapshot to the
// run's stdout after the report.
func TestMetricsToStdout(t *testing.T) {
	code, stdout, stderr := runSim("-nodes", "4", "-txns", "20", "-metrics-out", "-")
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	if i := strings.Index(stdout, "\n{"); i < 0 || !strings.Contains(stdout[i:], `"metrics"`) {
		t.Fatalf("no JSON snapshot after the report:\n%s", stdout)
	}
	if strings.Contains(stdout, "telemetry snapshot written to") {
		t.Errorf("stdout names a snapshot file for -metrics-out -")
	}
	if _, err := os.Stat("-"); err == nil {
		t.Errorf("-metrics-out - created a file named -")
	}
}
