package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// oracle-replay re-executes itself to measure a child's peak RSS.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "rss-child" {
		os.Exit(rssChild(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// mayBeNonPositive lists the per-layer metrics that are differences or
// residuals: noise (or a layer that costs nothing) can put them at or
// below zero.
func mayBeNonPositive(m Metric) bool {
	return m.Method == methodAblate && m.Name != "sim.base_ns_per_cycle" && m.Name != "sim.base_allocs_per_kcycle" ||
		m.Method == methodBench || m.Name == "fabric.idle_wait_ms"
}

// TestQuickSmoke runs all five workloads, untraced and traced, at about
// 1/50 size and checks that every metric is present, finite and (where
// it is not a difference) positive, that outputs check out, and that the
// result document and the Chrome trace load.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "set.json")
	traceOut := filepath.Join(dir, "trace.json")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The run keeps its scratch directory in the working directory.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout bytes.Buffer
	if code := runMain([]string{"-quick", "-out", out, "-trace-out", traceOut}, &stdout); code != 0 {
		t.Fatalf("quick run exited %d\n%s", code, stdout.String())
	}
	set, err := readRunSet(out)
	if err != nil {
		t.Fatal(err)
	}
	if set.Claim != nil || !set.Quick || set.W != workers() || len(set.Workloads) != len(workloadDefs) {
		t.Fatalf("run set header %+v", set)
	}
	for _, w := range set.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.Name, w.Correct, w.Attempted, w.Failed, w.Notes)
		}
		for _, m := range endToEnd {
			v, ok := w.EndToEnd[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range perLayer {
			v, ok := w.PerLayer[m.Name]
			switch {
			case !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit || v.Moves != m.Moves:
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.Name, m.Name, v, ok)
			case !m.measuredOn(w.Name) && v.Value != 0:
				t.Errorf("%s: %s = %v on a workload that does not measure it", w.Name, m.Name, v.Value)
			case m.measuredOn(w.Name) && v.Value <= 0 && !mayBeNonPositive(m):
				t.Errorf("%s: %s = %v, want positive", w.Name, m.Name, v.Value)
			}
		}
		// Stage self times account for the workload's wall time.
		sum, _ := w.Detail["span_self_sum_ms"].(float64)
		if wall := w.WallS * 1e3; math.Abs(sum-wall) > 0.05*wall {
			t.Errorf("%s: stage self times sum to %.1f ms, wall time is %.1f ms", w.Name, sum, wall)
		}
		for _, traced := range []bool{false, true} {
			line, err := w.contractLine(traced)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			var obj struct {
				Correct   *bool                     `json:"correct"`
				Attempted *int                      `json:"attempted"`
				Failed    *int                      `json:"failed"`
				Metrics   map[string]map[string]any `json:"metrics"`
			}
			if err := json.Unmarshal(line, &obj); err != nil || obj.Correct == nil || obj.Attempted == nil || obj.Failed == nil {
				t.Errorf("%s: result line %s: %v", w.Name, line, err)
			}
			if want := map[bool]int{false: len(endToEnd), true: len(perLayer)}[traced]; len(obj.Metrics) != want {
				t.Errorf("%s: trace=%v result line has %d metrics, want %d", w.Name, traced, len(obj.Metrics), want)
			}
		}
	}
	// A set compares clean with itself.
	if code := compareSets(set, set, io.Discard); code != 0 {
		t.Errorf("a set compared with itself exits %d", code)
	}

	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) < 5*len(workloadDefs) {
		t.Errorf("Chrome trace: %d events, err %v", len(chrome.TraceEvents), err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".dvmc-bench-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
