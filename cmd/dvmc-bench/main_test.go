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

// TestCompareReportsIdenticalTable drives the tool's one check: the
// parallel Figure 5 table equals its serial re-run.
func TestCompareReportsIdenticalTable(t *testing.T) {
	code, stdout, stderr := runBench("-fig", "5", "-reps", "1", "-txns", "20", "-compare")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "parallel table identical: true") {
		t.Errorf("no identity verdict in stdout:\n%s", stdout)
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
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s x: exit %d, stderr %q; want 2 from flag parsing", name, code, stderr)
		}
	}
}
