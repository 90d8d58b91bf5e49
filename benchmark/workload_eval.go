package main

import (
	"fmt"
	"math"
	"time"

	"dvmc"
)

// paper-eval: Figure 5 plus the section 6.1 error-detection table
// through the parallel figure harness, as `dvmc-bench -fig` runs them.

const (
	evalReps         = 5
	evalTransactions = 20     // per Figure 5 run at scale 1
	evalRepetitions  = 2      // perturbed repetitions per Figure 5 cell
	evalFaults       = 2      // injections per section 6.1 row
	evalBudget       = 60_000 // post-injection cycles at scale 1
	evalMaxCycles    = 30_000_000
	evalStageReps    = 3

	// evalCampaignSeed is the section 6.1 campaign seed. It does not
	// follow the benchmark seed: the cost of a 16-injection campaign
	// varies twentyfold with the draw of fault kinds (0.2 to 6 s over
	// seeds 1..10), so a varying seed would measure the draw. Seed 4 is
	// a draw whose cost is about Figure 5's. The benchmark seed perturbs
	// Figure 5's runs, as the paper's "small pseudo-random
	// perturbations" do.
	evalCampaignSeed = 4
)

// evalSize is one repetition's parameters.
type evalSize struct {
	opts   dvmc.ExperimentOpts
	faults int
	budget uint64
}

func evalSizeFor(e *env) evalSize {
	return evalSize{
		opts: dvmc.ExperimentOpts{
			Transactions: uint64(math.Max(2, math.Round(evalTransactions*e.scale))),
			MaxCycles:    evalMaxCycles,
			Repetitions:  int(math.Max(1, math.Round(evalRepetitions*e.scale))),
			SeedBase:     e.seed,
		},
		faults: int(math.Max(1, math.Round(evalFaults*e.scale))),
		budget: uint64(math.Max(5_000, math.Round(evalBudget*e.scale))),
	}
}

// runs is the number of simulator runs (one NewSystem each) in a
// repetition: the workload's unit of work.
func (s evalSize) runs(fig5 dvmc.Table) int {
	return len(fig5.Rows)*len(fig5.Cols)*s.opts.Repetitions + len(dvmc.ErrorDetectionRows())*s.faults
}

// evalTables is one repetition's output.
type evalTables struct {
	fig5, s61         dvmc.Table
	fig5Wall, s61Wall float64
}

func runEvalRep(s evalSize, workers int, rec *Recorder, parent int) (evalTables, error) {
	var out evalTables
	var err error
	s.opts.Workers = workers
	t := time.Now()
	rec.Do(parent, "dvmc.Figure5", func(int) { out.fig5, err = dvmc.Figure5(s.opts) })
	out.fig5Wall = time.Since(t).Seconds()
	if err != nil {
		return out, fmt.Errorf("Figure5: %w", err)
	}
	t = time.Now()
	rec.Do(parent, "dvmc.ErrorDetectionTable", func(int) {
		out.s61, err = dvmc.ErrorDetectionTable(s.faults, s.budget, evalCampaignSeed, workers)
	})
	out.s61Wall = time.Since(t).Seconds()
	if err != nil {
		return out, fmt.Errorf("ErrorDetectionTable: %w", err)
	}
	return out, nil
}

// evalCells is the number of checked cells in a repetition: every
// Figure 5 cell and every section 6.1 row.
func evalCells(t evalTables) int { return len(t.fig5.Rows)*len(t.fig5.Cols) + len(t.s61.Rows) }

// checkEval counts the failed cells of one repetition: a cell that
// differs from the serial table's, and a section 6.1 row with an
// undetected fault.
func checkEval(got, want evalTables) (failed int, note string) {
	for i := range want.fig5.Cells {
		for j := range want.fig5.Cells[i] {
			if i >= len(got.fig5.Cells) || j >= len(got.fig5.Cells[i]) || got.fig5.Cells[i][j] != want.fig5.Cells[i][j] {
				failed++
				note = fmt.Sprintf("Figure 5 cell %s/%s differs from the Workers: 1 table", want.fig5.Rows[i], want.fig5.Cols[j])
			}
		}
	}
	for i := range want.s61.Cells {
		switch {
		case i >= len(got.s61.Cells) || fmt.Sprint(got.s61.Cells[i]) != fmt.Sprint(want.s61.Cells[i]):
			failed++
			note = fmt.Sprintf("section 6.1 row %s differs from the Workers: 1 table", want.s61.Rows[i])
		case got.s61.Cells[i][3].Mean > 0: // column "undetected"
			failed++
			note = fmt.Sprintf("section 6.1 row %s has %.0f undetected faults", want.s61.Rows[i], got.s61.Cells[i][3].Mean)
		}
	}
	return failed, note
}

func runEval(e *env, def WorkloadDef) (*WorkloadResult, error) {
	res := newWorkloadResult(def)
	size := evalSizeFor(e)

	// Set-up builds the expected output: the same tables at Workers: 1.
	var want evalTables
	var err error
	e.rec.Do(e.root, "setup:serial-tables", func(int) {
		for i := 0; i < referenceSetups && err == nil; i++ {
			t := time.Now()
			want, err = runEvalRep(size, 1, nil, -1)
			res.SetupSamples = append(res.SetupSamples, time.Since(t).Seconds())
		}
	})
	if err != nil {
		return nil, err
	}
	serial := summarize(res.SetupSamples).RuleTime()
	runs := size.runs(want.fig5)

	// One unit is one repetition of both tables.
	repFn := func(out []evalTables, rec *Recorder, parent int) func(int) {
		return func(r int) {
			if err != nil {
				return
			}
			id := rec.Begin(parent, 0, "eval-repetition")
			out[r], err = runEvalRep(size, e.W, rec, id)
			rec.End(id)
		}
	}
	tables, ttables := make([]evalTables, evalReps), make([]evalTables, evalReps)
	e.timedPass(res, evalReps, float64(runs), repFn(tables, nil, -1),
		func(parent int) func(int) { return repFn(ttables, e.rec, parent) })
	if err != nil {
		return nil, err
	}
	for _, got := range tables {
		res.Attempted += evalCells(want)
		if failed, note := checkEval(got, want); failed > 0 {
			res.fail(failed, "%s", note)
		}
	}
	if !e.traced {
		return res, nil
	}
	for _, got := range ttables {
		if failed, note := checkEval(got, want); failed > 0 {
			res.incorrect("traced repetition: %s", note)
		}
	}
	var f5, s61 []float64
	for _, tb := range tables {
		f5 = append(f5, tb.fig5Wall)
		s61 = append(s61, tb.s61Wall)
	}
	res.setLayer("harness.fig5_wall_s", summarize(f5).RuleTime())
	res.setLayer("harness.s61_wall_s", summarize(s61).RuleTime())
	res.setLayer("harness.serial_wall_s", serial)
	res.setLayer("harness.parallel_speedup", serial/res.Timing.RuleTime())
	e.rec.Do(e.root, "stages", func(id int) { err = evalStages(e, res, size, id) })
	return res, err
}

// evalStages drives the two calls every cell is made of: building a
// system, and one injection run.
func evalStages(e *env, res *WorkloadResult, size evalSize, parent int) error {
	cfg := dvmc.ScaledConfig().WithSeed(e.seed)
	var err error
	build := timeChunks(50, func(int) {
		id := e.rec.Begin(parent, 0, "dvmc.NewSystem")
		_, berr := dvmc.NewSystem(cfg, dvmc.OLTP())
		e.rec.End(id)
		if berr != nil {
			err = berr
		}
	})
	if err != nil {
		return err
	}
	res.setLayer("harness.new_system_us", summarize(build).RuleTime()*1e6)

	row := dvmc.ErrorDetectionRows()[0]
	icfg := dvmc.ErrorDetectionConfig(row, evalCampaignSeed)
	injs := dvmc.DeriveCampaignInjections(icfg, 4*size.faults)
	applied := 0
	perCase := fastestPerOp(evalStageReps, len(injs), func() {
		applied = 0
		for i, inj := range injs {
			id := e.rec.Begin(parent, 0, "dvmc.RunInjection")
			r, ierr := dvmc.RunInjection(icfg.WithSeed(icfg.Seed+uint64(i)), dvmc.OLTP(), inj, size.budget)
			e.rec.End(id)
			if ierr != nil {
				err = ierr
			}
			if r.Applied {
				applied++
			}
		}
	})
	if err != nil {
		return err
	}
	res.setLayer("inject.us_per_case", perCase*1e6)
	res.setLayer("inject.applied_share", float64(applied)/float64(len(injs)))
	return nil
}
