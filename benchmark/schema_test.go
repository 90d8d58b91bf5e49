package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	e2e := map[string]bool{}
	hasSetup := false
	for _, m := range endToEnd {
		name("end-to-end", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetup {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range perLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if !e2e[m.Moves] {
			t.Errorf("%s should move %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
		if m.Method == "" || len(m.On) == 0 {
			t.Errorf("%s names no method or no workload", m.Name)
		}
		for _, w := range m.On {
			if _, ok := workloadDef(w); !ok {
				t.Errorf("%s is measured on unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables it is
// generated from (`go run ./benchmark manifest > BENCHMARK.json`).
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := manifestMain(&buf); code != 0 {
		t.Fatalf("manifest exited %d", code)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(buf.Bytes())) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark manifest`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := m[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(m, k)
	}
	for k := range m {
		t.Errorf("BENCHMARK.json has extra key %q", k)
	}
}

func runSetFixture() *RunSet {
	wl := func(rate, allocs, setup float64) *WorkloadResult {
		r := newWorkloadResult(workloadDefs[0])
		r.Chunks, r.ChunkWork, r.Attempted = 100, 50000, 100
		r.Timing = Summary{N: 100, Median: 0.1, P10: 0.09, P90: 0.12, Min: 0.08}
		r.EndToEnd[mRate] = Value{Value: rate, Unit: "1/s"}
		r.EndToEnd[mAllocs] = Value{Value: allocs, Unit: "count"}
		r.EndToEnd[mSetup] = Value{Value: setup, Unit: "s"}
		r.setLayer("sim.tpkc", 1.5)
		return r
	}
	return &RunSet{Schema: resultSchema, W: 2, Seed: 1, Seconds: 10, Workloads: []*WorkloadResult{wl(500000, 1.7, 0.1)}}
}

func TestCompare(t *testing.T) {
	a := runSetFixture()
	var out bytes.Buffer

	same := runSetFixture()
	if code := compareSets(a, same, &out); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}

	// Within bounds: rate 10% down, set-up 0.15 s up (inside the 0.2 s floor).
	b := runSetFixture()
	b.Workloads[0].EndToEnd[mRate] = Value{Value: 450000}
	b.Workloads[0].EndToEnd[mSetup] = Value{Value: 0.25}
	if code := compareSets(a, b, &out); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}

	// Rate beyond its bound with disjoint chunk spreads: a regression.
	out.Reset()
	b = runSetFixture()
	b.Workloads[0].EndToEnd[mRate] = Value{Value: 300000}
	b.Workloads[0].Timing = Summary{N: 100, Median: 0.17, P10: 0.15, P90: 0.2, Min: 0.14}
	if code := compareSets(a, b, &out); code != 1 || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("regression: exit %d\n%s", code, out.String())
	}
	// Same delta, overlapping spreads: unresolved, still non-zero.
	out.Reset()
	b.Workloads[0].Timing = a.Workloads[0].Timing
	if code := compareSets(a, b, &out); code != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("unresolved: exit %d\n%s", code, out.String())
	}

	// Allocation count beyond its bound.
	b = runSetFixture()
	b.Workloads[0].EndToEnd[mAllocs] = Value{Value: 1.9}
	if code := compareSets(a, b, &out); code != 1 {
		t.Errorf("allocs regression: exit %d", code)
	}
	// An exact simulated count that moved.
	b = runSetFixture()
	b.Workloads[0].setLayer("sim.tpkc", 1.6)
	if code := compareSets(a, b, &out); code != 1 {
		t.Errorf("count differs: exit %d", code)
	}
	// Failures that differ.
	b = runSetFixture()
	b.Workloads[0].Failed = 1
	if code := compareSets(a, b, &out); code != 1 {
		t.Errorf("failed differs: exit %d", code)
	}

	// Not comparable: workers, seed, sizes.
	for _, mod := range []func(*RunSet){
		func(s *RunSet) { s.W = 1 },
		func(s *RunSet) { s.Seed = 2 },
		func(s *RunSet) { s.Workloads[0].ChunkWork = 1000 },
	} {
		b = runSetFixture()
		mod(b)
		if code := compareSets(a, b, &out); code != 2 {
			t.Errorf("incomparable sets: exit %d, want 2", code)
		}
	}
}
