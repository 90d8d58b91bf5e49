package dvmc

// The paper ablations: the three design choices DESIGN.md calls out
// with a measured alternative, each reported as one number
// EXPERIMENTS.md quotes. The figures and
// tables of Section 6 are regenerated by cmd/dvmc-bench and asserted by
// shapes_test.go; how fast anything runs is measured by ./benchmark.

import (
	"fmt"
	"testing"

	"dvmc/internal/sim"
)

// BenchmarkAblationVerifyWindow quantifies the design choice DESIGN.md
// calls out: eager parallel replay in the verification stage. It
// compares DVMC runtime with replay parallelism against the same system
// where the VC is sized to one word (forcing head-of-line replay).
func BenchmarkAblationVerifyWindow(b *testing.B) {
	run := func(vcWords int) float64 {
		cfg := ScaledConfig()
		cfg.Proc.VCWords = vcWords
		s, err := NewSystem(cfg, OLTP())
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(60, 30_000_000)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Cycles)
	}
	for i := 0; i < b.N; i++ {
		wide := run(64)
		narrow := run(2)
		b.ReportMetric(narrow/wide, "narrow-vc-slowdown")
	}
}

// BenchmarkAblationMembarInjection sweeps the artificial-membar period
// (the paper: about one per 100k cycles, "negligible performance
// impact") and reports the runtime ratio between aggressive (1k) and
// paper-rate (100k) injection.
func BenchmarkAblationMembarInjection(b *testing.B) {
	run := func(interval sim.Cycle) float64 {
		cfg := ScaledConfig()
		cfg.Proc.MembarInjectionInterval = interval
		s, err := NewSystem(cfg, Apache())
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(60, 30_000_000)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Cycles)
	}
	for i := 0; i < b.N; i++ {
		paper := run(100_000)
		aggressive := run(1_000)
		b.ReportMetric(aggressive/paper, "membar-1k-vs-100k")
	}
}

// BenchmarkAblationBlockingDirectory reports directory queueing pressure
// (DESIGN.md ablation: the blocking home simplification).
func BenchmarkAblationBlockingDirectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewSystem(ScaledConfig(), Slashcode())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(60, 30_000_000); err != nil {
			b.Fatal(err)
		}
		var queued, gets uint64
		for n := 0; n < 8; n++ {
			st := s.homes[n].Stats()
			queued += st.QueuedConflicts
			gets += st.GetS + st.GetM
		}
		if gets > 0 {
			b.ReportMetric(float64(queued)/float64(gets), "queued-per-request")
		}
	}
}

// Example of using the table printer (exercised by go vet's example
// checks).
func ExampleTable() {
	t := Table{
		Title: "demo",
		Rows:  []string{"row"},
		Cols:  []string{"col"},
		Cells: [][]Cell{{{Mean: 1.5, Std: 0.1}}},
	}
	fmt.Print(t.String()[:4])
	// Output: demo
}
