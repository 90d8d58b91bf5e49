package main

import (
	"bytes"
	"strings"
	"testing"
)

func runBench(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCompareReportsIdenticalTable drives the determinism check: the
// parallel Figure 5 table equals its serial re-run. The verdict and the
// timing line go to stderr, so stdout is the table alone.
func TestCompareReportsIdenticalTable(t *testing.T) {
	code, stdout, stderr := runBench("-fig", "5", "-reps", "1", "-txns", "20", "-compare")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "parallel table identical: true") {
		t.Errorf("no identity verdict in stderr:\n%s", stderr)
	}
	if !strings.HasPrefix(stdout, "Figure 5:") || strings.Contains(stdout, "[") {
		t.Errorf("stdout is not the table alone:\n%s", stdout)
	}
}

// TestExitCodes pins the tool's contract: 0 for a campaign the verdict
// passes and for -h, 1 for a bad flag (the per-row flags of the removed
// dvmc-errors among them) and a campaign size below one. The verdict's
// exit 2 is dvmc.Table.Verdict, pinned by the root package's
// TestTableVerdict; its first seed-42 failure needs -faults 8.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"clean campaign", []string{"-fig", "errors", "-faults", "1"}, 0, "unrecoverable", ""},
		{"help", []string{"-h"}, 0, "", "Usage of dvmc-bench"},
		{"bad flag", []string{"-bogus"}, 1, "", "flag provided but not defined: -bogus"},
		{"zero -faults", []string{"-fig", "errors", "-faults", "0"}, 1, "", "-faults 0: need at least one fault"},
		{"negative -faults", []string{"-fig", "errors", "-faults", "-1"}, 1, "", "-faults -1: need at least one fault"},
	} {
		code, stdout, stderr := runBench(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, want %d with stdout %q and stderr %q; got\nstdout: %s\nstderr: %s",
				tc.name, code, tc.code, tc.stdout, tc.stderr, stdout, stderr)
		}
	}
	for _, name := range []string{"-n", "-budget", "-workload", "-protocol", "-model", "-seed"} {
		if code, _, stderr := runBench(name, "1"); code != 1 || !strings.Contains(stderr, "flag provided but not defined: "+name) {
			t.Errorf("%s 1: exit %d, stderr %q; want 1 from flag parsing", name, code, stderr)
		}
	}
}

// TestEachPrintsEveryInjection: -each prints, after the table, one line
// per injection of the same run, under its row, in index order.
func TestEachPrintsEveryInjection(t *testing.T) {
	code, stdout, stderr := runBench("-fig", "errors", "-faults", "2", "-each", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	table, each, ok := strings.Cut(stdout, "\n\n")
	if !ok || !strings.HasPrefix(table, "Section 6.1:") {
		t.Fatalf("stdout is not the table then the results:\n%s", stdout)
	}
	lines := strings.Split(strings.TrimSuffix(each, "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("%d result lines, want 8 rows x 2 faults:\n%s", len(lines), each)
	}
	for i, l := range lines {
		row := []string{"directory/SC", "directory/TSO", "directory/PSO", "directory/RMO",
			"snooping/SC", "snooping/TSO", "snooping/PSO", "snooping/RMO"}[i/2]
		if !strings.HasPrefix(strings.TrimSpace(l), row+" ") || !strings.Contains(l, "@") {
			t.Errorf("line %d %q is not a %s injection result", i, l, row)
		}
	}
}

func TestUnknownFigureExitsOne(t *testing.T) {
	code, _, stderr := runBench("-fig", "10")
	if code != 1 || !strings.Contains(stderr, `unknown figure "10"`) {
		t.Errorf("exit %d, stderr %q; want 1 and the figure named", code, stderr)
	}
}

// TestBadSizesExitOne pins that sizes no run can use fail closed with the
// flag named, instead of a divide-by-zero panic or an all-zero table.
func TestBadSizesExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "5", "-reps", "0"},
		{"-fig", "5", "-reps", "-2"},
		{"-fig", "5", "-txns", "0"},
		{"-fig", "6", "-reps", "0"},
	} {
		code, stdout, stderr := runBench(args...)
		flag := args[2]
		if code != 1 || !strings.Contains(stderr, flag) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1, nothing printed and %s named", args, code, stdout, stderr, flag)
		}
	}
}

// TestReportFlagsAreGone pins that the JSON report and the telemetry
// snapshot stay removed: speed is recorded by `go run ./benchmark -out`.
func TestReportFlagsAreGone(t *testing.T) {
	for _, name := range []string{"-json", "-metrics-out"} {
		code, _, stderr := runBench(name, "x")
		if code != 1 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s x: exit %d, stderr %q; want 1 from flag parsing", name, code, stderr)
		}
	}
}
