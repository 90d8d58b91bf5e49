package dvmc

import (
	"strings"
	"sync"
	"testing"
)

// figures returns the named figures of Figures(), in the order named.
func figures(t *testing.T, names ...string) []Figure {
	t.Helper()
	var out []Figure
	for _, name := range names {
		found := false
		for _, f := range Figures() {
			if f.Name == name {
				out, found = append(out, f), true
			}
		}
		if !found {
			t.Fatalf("no figure %q", name)
		}
	}
	return out
}

// TestFigureHarnessSmoke runs Figures 3, 5, 6 and 7 as one matrix at
// minimal size and checks structural sanity: every cell populated,
// positive baselines, correct normalisation anchors.
func TestFigureHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	opts := ExperimentOpts{Transactions: 24, MaxCycles: 20_000_000, Repetitions: 1, SeedBase: 5}
	tabs, err := Evaluate(figures(t, "Figure 3", "Figure 5", "Figure 6", "Figure 7"), opts)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("figure3", func(t *testing.T) {
		tab := tabs[0]
		assertTableShape(t, tab, 5, 8)
		// SC-base is the normalisation anchor: exactly 1.0 per row.
		for i := range tab.Rows {
			if tab.Cells[i][0].Mean != 1.0 {
				t.Errorf("%s: SC-base = %v, want 1.0", tab.Rows[i], tab.Cells[i][0].Mean)
			}
		}
	})

	t.Run("figure5", func(t *testing.T) {
		tab := tabs[1]
		assertTableShape(t, tab, 5, 5)
		for i := range tab.Rows {
			if tab.Cells[i][0].Mean != 1.0 {
				t.Errorf("%s: base cell not 1.0", tab.Rows[i])
			}
		}
	})

	t.Run("figure6", func(t *testing.T) {
		tab := tabs[2]
		assertTableShape(t, tab, 5, 1)
		for i := range tab.Rows {
			if r := tab.Cells[i][0].Mean; r < 0 || r > 1 {
				t.Errorf("%s: replay ratio %v out of [0,1]", tab.Rows[i], r)
			}
		}
	})

	t.Run("figure7", func(t *testing.T) {
		tab := tabs[3]
		assertTableShape(t, tab, 5, 4)
		for i := range tab.Rows {
			for j := range tab.Cols {
				if tab.Cells[i][j].Mean <= 0 {
					t.Errorf("%s/%s: non-positive bandwidth", tab.Rows[i], tab.Cols[j])
				}
			}
		}
	})
}

func TestFigure8And9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	opts := ExperimentOpts{Transactions: 16, MaxCycles: 20_000_000, Repetitions: 1, SeedBase: 5}
	tabs, err := Evaluate(figures(t, "Figure 8", "Figure 9"), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTableShape(t, tabs[0], 5, 1)
	tab9 := tabs[1]
	assertTableShape(t, tab9, 4, 1)
	// Slowdowns must stay in a sane band.
	for i := range tab9.Rows {
		v := tab9.Cells[i][0].Mean
		if v < 0.5 || v > 3 {
			t.Errorf("figure 9 row %s: slowdown %v implausible", tab9.Rows[i], v)
		}
	}
}

func TestErrorDetectionTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	tab, err := ErrorDetectionTable(3, 150_000, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertTableShape(t, tab, 8, 5)
	for i := range tab.Rows {
		if undetected := tab.Cells[i][3].Mean; undetected != 0 {
			t.Errorf("%s: %v false negatives", tab.Rows[i], undetected)
		}
		if unrecoverable := tab.Cells[i][4].Mean; unrecoverable != 0 {
			t.Errorf("%s: %v detections outside the recovery window", tab.Rows[i], unrecoverable)
		}
	}
	if len(tab.Injections) != 8*3 {
		t.Errorf("the table carries %d injection results, want 24", len(tab.Injections))
	}
}

// TestErrorDetectionConfigIsTheTableRow: each Section 6.1 row runs the
// fully protected system of its protocol and model with the campaign's
// own knobs (a 10k-cycle SafetyNet interval keeping 10 checkpoints, a
// membar injected every 5,000 cycles) and the campaign seed.
func TestErrorDetectionConfigIsTheTableRow(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		for _, row := range ErrorDetectionRows() {
			want := ScaledConfig().WithSeed(seed)
			want.SNConfig.Interval = 10000
			want.SNConfig.Keep = 10
			want.Proc.MembarInjectionInterval = 5000
			want.DVMC, want.SafetyNet = Full(), true
			if want = want.WithModel(row.Model).WithProtocol(row.Protocol); ErrorDetectionConfig(row, seed) != want {
				t.Errorf("%v/%v seed %d: config differs from the campaign's knobs", row.Protocol, row.Model, seed)
			}
		}
	}
}

func assertTableShape(t *testing.T, tab Table, rows, cols int) {
	t.Helper()
	if len(tab.Rows) != rows || len(tab.Cols) != cols {
		t.Fatalf("table %dx%d, want %dx%d", len(tab.Rows), len(tab.Cols), rows, cols)
	}
	if len(tab.Cells) != rows {
		t.Fatalf("cells rows %d", len(tab.Cells))
	}
	for _, r := range tab.Cells {
		if len(r) != cols {
			t.Fatalf("cells cols %d", len(r))
		}
	}
	if tab.String() == "" || !strings.Contains(tab.String(), tab.Rows[0]) {
		t.Error("table does not render")
	}
}

// matrixOpts sizes the whole-matrix tests: small, but every figure and
// a §6.1 table with one injection per row.
var matrixOpts = ExperimentOpts{Transactions: 16, MaxCycles: 20_000_000, Repetitions: 1, SeedBase: 5}

func wholeMatrix() []Figure { return append(Figures(), ErrorDetection(1, 60_000, 4)) }

// serialMatrix is the whole matrix's tables at one worker, computed once
// for the tests that compare against it.
var serialMatrix = sync.OnceValues(func() ([]Table, error) {
	opts := matrixOpts
	opts.Workers = 1
	return Evaluate(wholeMatrix(), opts)
})

// TestFigureTablesIdenticalAcrossWorkerCounts is the harness-level
// determinism regression: the whole matrix — every figure plus a §6.1
// table, in one pool — renders the same tables at 2 and 64 workers
// (more workers than some figures have jobs) as at one.
func TestFigureTablesIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	serial, err := serialMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 64} {
		opts := matrixOpts
		opts.Workers = workers
		par, err := Evaluate(wholeMatrix(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if par[i].String() != serial[i].String() {
				t.Errorf("workers=%d: table %d differs from serial run\nserial:\n%s\nparallel:\n%s", workers, i, serial[i], par[i])
			}
		}
	}
}

// TestMatrixRunsEachDistinctJobOnce pins the sharing: the seven figures
// declare 44 sample jobs per workload, of which 33 are distinct, and
// each figure's view of the shared run is byte-equal to the figure run
// alone.
func TestMatrixRunsEachDistinctJobOnce(t *testing.T) {
	declared := 0
	for _, f := range Figures() {
		declared += len(f.configs) * len(Workloads())
	}
	samples, campaigns := plan(wholeMatrix())
	if ws := len(Workloads()); declared != 44*ws || len(samples) != 33*ws || len(campaigns) != len(ErrorDetectionRows()) {
		t.Fatalf("declared %d sample jobs, ran %d, %d campaigns; want %d, %d, %d",
			declared, len(samples), len(campaigns), 44*ws, 33*ws, len(ErrorDetectionRows()))
	}
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	shared, err := serialMatrix()
	if err != nil {
		t.Fatal(err)
	}
	opts := matrixOpts
	opts.Workers = 0
	for i, f := range wholeMatrix() {
		alone, err := Evaluate([]Figure{f}, opts)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if alone[0].String() != shared[i].String() {
			t.Errorf("%s: shared view differs from the figure run alone\nshared:\n%s\nalone:\n%s", f.Name, shared[i], alone[0])
		}
	}
}

// TestExperimentOptsFailClosed pins that a size no run can use is an
// error, not a divide-by-zero panic or an all-zero table.
func TestExperimentOptsFailClosed(t *testing.T) {
	ok := QuickExperimentOpts()
	for name, mutate := range map[string]func(*ExperimentOpts){
		"Transactions": func(o *ExperimentOpts) { o.Transactions = 0 },
		"Repetitions":  func(o *ExperimentOpts) { o.Repetitions = -2 },
		"MaxCycles":    func(o *ExperimentOpts) { o.MaxCycles = 0 },
	} {
		o := ok
		mutate(&o)
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Validate() = %v, want an error naming it", name, err)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("QuickExperimentOpts: %v", err)
	}
	if _, err := Figure5(ExperimentOpts{}); err == nil {
		t.Error("Figure5(ExperimentOpts{}) succeeded")
	}
	if _, err := ErrorDetectionTable(-1, 1000, 1, 1); err == nil {
		t.Error("ErrorDetectionTable with -1 faults succeeded")
	}
}

func TestQuickAndDefaultOpts(t *testing.T) {
	if DefaultExperimentOpts().Repetitions < 1 || QuickExperimentOpts().Repetitions < 1 {
		t.Error("bad default opts")
	}
}
