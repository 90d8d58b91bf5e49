package dvmc

import (
	"fmt"
	"strings"

	"dvmc/internal/par"
	"dvmc/internal/stats"
)

// ExperimentOpts sizes an experiment run. The paper runs each simulation
// ten times with small pseudo-random perturbations; Repetitions controls
// that here.
type ExperimentOpts struct {
	Transactions uint64 // transactions per run (across all nodes)
	MaxCycles    uint64 // per-run cycle budget
	Repetitions  int    // perturbed repetitions per configuration
	SeedBase     uint64

	// Workers bounds the harness's worker pool; 1 runs serially and <=0
	// picks min(GOMAXPROCS, jobs) — oversubscribing a small host makes
	// parallel runs slower than serial, so the default never exceeds the
	// schedulable parallelism. Every simulation is a pure function of its
	// (Config, Workload, opts) job and workers write only their own
	// result slots, so the assembled tables are byte-identical at any
	// worker count.
	Workers int
}

// DefaultExperimentOpts returns a configuration sized for minutes-scale
// regeneration of every figure.
func DefaultExperimentOpts() ExperimentOpts {
	return ExperimentOpts{Transactions: 150, MaxCycles: 40_000_000, Repetitions: 3, SeedBase: 100}
}

// QuickExperimentOpts returns a configuration for smoke tests.
func QuickExperimentOpts() ExperimentOpts {
	return ExperimentOpts{Transactions: 40, MaxCycles: 20_000_000, Repetitions: 1, SeedBase: 100}
}

// Cell is one mean ± stddev table entry.
type Cell struct {
	Mean float64
	Std  float64
}

// Table is a printable experiment result (one per paper figure).
type Table struct {
	Title string
	Note  string
	Rows  []string
	Cols  []string
	Cells [][]Cell

	// Injections are the results the Section 6.1 table counts, in index
	// order (row-major); a figure's table has none. They are not printed.
	Injections []InjectionResult
}

// Verdict is the Section 6.1 rule dvmc-bench and dvmc-farm exit 2 by: an
// error when an applied fault went undetected (a false negative) or was
// detected with no live pre-error checkpoint (unrecoverable). A table
// that counts no injections passes.
func (t Table) Verdict() error {
	_, _, _, undetected, unrecoverable := CampaignResult{Results: t.Injections}.Counts()
	if undetected == 0 && unrecoverable == 0 {
		return nil
	}
	return fmt.Errorf("%d undetected and %d unrecoverable faults", undetected, unrecoverable)
}

// String renders the table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", t.Note)
	}
	w := 12
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", w+8, c)
	}
	b.WriteString("\n")
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s", r)
		for j := range t.Cols {
			c := t.Cells[i][j]
			fmt.Fprintf(&b, "%*s", w+8, fmt.Sprintf("%.3f ±%.3f", c.Mean, c.Std))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Validate reports sizes no sample run can use: each needs at least
// one transaction, one repetition and one cycle of budget.
func (o ExperimentOpts) Validate() error {
	switch {
	case o.Transactions < 1:
		return fmt.Errorf("dvmc: ExperimentOpts.Transactions = %d, need >= 1", o.Transactions)
	case o.Repetitions < 1:
		return fmt.Errorf("dvmc: ExperimentOpts.Repetitions = %d, need >= 1", o.Repetitions)
	case o.MaxCycles < 1:
		return fmt.Errorf("dvmc: ExperimentOpts.MaxCycles = %d, need >= 1", o.MaxCycles)
	}
	return nil
}

// A Figure is one table of the paper's evaluation: the runs it needs
// and a view that renders its Table from their results. Figures declare
// runs instead of running them, so Evaluate can run every distinct run
// of a set of figures once, on one pool — Figures 3 and 5–9 share their
// directory/TSO runs.
type Figure struct {
	Name string // "Figure 3" … "Figure 9", "Section 6.1"

	configs   []Config      // sample jobs: each config against every workload
	campaigns []campaignJob // injection campaigns (the Section 6.1 rows)
	view      func(*runs) Table
}

// sampleJob is one runtimeSample: a configuration against a workload.
type sampleJob struct {
	cfg Config
	w   Workload
}

// sampleKey identifies a sampleJob; a workload is keyed by its name.
type sampleKey struct {
	cfg      Config
	workload string
}

// campaignJob is one injection campaign: n derived injections into cfg
// on w, each run for budget cycles.
type campaignJob struct {
	cfg    Config
	w      Workload
	n      int
	budget uint64
}

// campaignKey identifies a campaignJob; a workload is keyed by its name.
type campaignKey struct {
	cfg      Config
	workload string
	n        int
	budget   uint64
}

func (j campaignJob) key() campaignKey { return campaignKey{j.cfg, j.w.Name, j.n, j.budget} }

// runs is a finished matrix, for the views to look results up in.
type runs struct {
	samples   map[sampleKey][]Results
	campaigns map[campaignKey]CampaignResult
}

// injectionSpace numbers the injections of a list of campaigns as one
// index space: campaign by campaign, each campaign's derived injections
// in order. The Section 6.1 matrix's campaigns are its rows, so there
// index i is row i/faults, injection i%faults. Evaluate's pool and the
// fabric's experiment shards both run index i through run.
type injectionSpace struct {
	jobs  []campaignJob
	injs  []Injection // every campaign's injections, campaign by campaign
	first []int       // first[c] is campaign c's first index; first[len(jobs)] is len(injs)
}

// newInjectionSpace derives every campaign's injections; a campaign of
// fewer than zero faults contributes none (execute refuses it).
func newInjectionSpace(jobs []campaignJob) injectionSpace {
	s := injectionSpace{jobs: jobs}
	for _, job := range jobs {
		s.first = append(s.first, len(s.injs))
		s.injs = append(s.injs, DeriveCampaignInjections(job.cfg, max(job.n, 0))...)
	}
	s.first = append(s.first, len(s.injs))
	return s
}

// run executes index i, injection j of its campaign, into a fresh system
// seeded cfg.Seed+j: the rule that makes any injection of a campaign
// runnable anywhere with the serial run's result.
func (s injectionSpace) run(i int) (InjectionResult, error) {
	c := 0
	for i >= s.first[c+1] {
		c++
	}
	job, j := s.jobs[c], i-s.first[c]
	r, err := RunInjection(job.cfg.WithSeed(job.cfg.Seed+uint64(j)), job.w, s.injs[i], job.budget)
	if err != nil {
		return r, fmt.Errorf("injection %d (%v): %w", j, s.injs[i].Kind, err)
	}
	return r, nil
}

// campaigns splits results, one per index in index order, into each
// campaign's CampaignResult.
func (s injectionSpace) campaigns(results []InjectionResult) map[campaignKey]CampaignResult {
	out := make(map[campaignKey]CampaignResult, len(s.jobs))
	for c, job := range s.jobs {
		out[job.key()] = CampaignResult{Results: results[s.first[c]:s.first[c+1]]}
	}
	return out
}

// over samples metric across the repetitions of cfg on w.
func (r *runs) over(cfg Config, w Workload, metric func(Results) float64) *stats.Sample {
	s := &stats.Sample{}
	for _, res := range r.samples[sampleKey{cfg, w.Name}] {
		s.Add(metric(res))
	}
	return s
}

// cycles is the runtime metric: cycles to complete the transaction
// quota.
func cycles(r Results) float64 { return float64(r.Cycles) }

func cellOf(s *stats.Sample) Cell { return Cell{Mean: s.Mean(), Std: s.StdDev()} }

// Evaluate runs the figures as one matrix and renders their tables in
// order. Their sample jobs are keyed by (Config, workload name) and
// their campaigns by (Config, workload name, faults, budget), so a run
// two figures share executes once; every sample job and every campaign
// injection is one slot of a single pool of opts.Workers workers. The
// first error in slot order, regardless of completion order, aborts the
// evaluation.
func Evaluate(figs []Figure, opts ExperimentOpts) ([]Table, error) {
	r, err := execute(figs, opts)
	if err != nil {
		return nil, err
	}
	tables := make([]Table, len(figs))
	for i, f := range figs {
		tables[i] = f.view(r)
	}
	return tables, nil
}

// execute runs the figures' distinct sample jobs and injections on one
// pool and collects their results for the views.
func execute(figs []Figure, opts ExperimentOpts) (*runs, error) {
	samples, campaigns := plan(figs)
	if len(samples) > 0 {
		if err := opts.Validate(); err != nil {
			return nil, err
		}
	}
	for _, job := range campaigns {
		if job.n < 0 {
			return nil, fmt.Errorf("dvmc: campaign of %d faults, need >= 0", job.n)
		}
	}
	space := newInjectionSpace(campaigns)
	results := make([][]Results, len(samples))
	injections := make([]InjectionResult, len(space.injs))
	errs := make([]error, len(samples)+len(injections))
	par.For(len(errs), opts.Workers, func(k int) {
		if k < len(samples) {
			results[k], errs[k] = runtimeSample(samples[k].cfg, samples[k].w, opts)
			return
		}
		injections[k-len(samples)], errs[k] = space.run(k - len(samples))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r := &runs{samples: make(map[sampleKey][]Results, len(samples)), campaigns: space.campaigns(injections)}
	for k, job := range samples {
		r.samples[sampleKey{job.cfg, job.w.Name}] = results[k]
	}
	return r, nil
}

// plan is the figures' distinct sample jobs and campaigns, in the order
// the figures first name them.
func plan(figs []Figure) ([]sampleJob, []campaignJob) {
	var samples []sampleJob
	var campaigns []campaignJob
	seen := map[sampleKey]bool{}
	seenCampaign := map[campaignKey]bool{}
	ws := Workloads()
	for _, f := range figs {
		for _, cfg := range f.configs {
			for _, w := range ws {
				if k := (sampleKey{cfg, w.Name}); !seen[k] {
					seen[k] = true
					samples = append(samples, sampleJob{cfg, w})
				}
			}
		}
		for _, c := range f.campaigns {
			if !seenCampaign[c.key()] {
				seenCampaign[c.key()] = true
				campaigns = append(campaigns, c)
			}
		}
	}
	return samples, campaigns
}

// space is f's injection index space, as Evaluate numbers it.
func (f Figure) space() injectionSpace {
	_, campaigns := plan([]Figure{f})
	return newInjectionSpace(campaigns)
}

// Injections are f's injections in index order (for the Section 6.1
// figure, row-major): the index space a caller that runs them elsewhere
// — the fabric's experiment shards — walks with Inject.
func (f Figure) Injections() []Injection { return f.space().injs }

// Inject runs injection i of f exactly as Evaluate does.
func (f Figure) Inject(i int) (InjectionResult, error) {
	s := f.space()
	if i < 0 || i >= len(s.injs) {
		return InjectionResult{}, fmt.Errorf("dvmc: %s has no injection %d", f.Name, i)
	}
	return s.run(i)
}

// View renders a figure that runs nothing but injections from their
// results, one per index in index order, through the view Evaluate
// renders it with.
func (f Figure) View(results []InjectionResult) (Table, error) {
	s := f.space()
	if len(results) != len(s.injs) {
		return Table{}, fmt.Errorf("dvmc: %s has %d injections, got %d results", f.Name, len(s.injs), len(results))
	}
	return f.view(&runs{campaigns: s.campaigns(results)}), nil
}

// evaluateOne runs a single figure.
func evaluateOne(f Figure, opts ExperimentOpts) (Table, error) {
	tables, err := Evaluate([]Figure{f}, opts)
	if err != nil {
		return Table{}, err
	}
	return tables[0], nil
}

// runtimeSample runs cfg on w over perturbed repetitions and returns
// each repetition's Results.
func runtimeSample(cfg Config, w Workload, opts ExperimentOpts) ([]Results, error) {
	var all []Results
	for rep := 0; rep < opts.Repetitions; rep++ {
		s, err := NewSystem(cfg.WithSeed(opts.SeedBase+uint64(rep)), w)
		if err != nil {
			return nil, err
		}
		res, err := s.Run(opts.Transactions, opts.MaxCycles)
		v := s.Violations()
		s.Retire()
		if err != nil {
			return nil, fmt.Errorf("%s/%v/%v rep %d: %w", w.Name, cfg.Protocol, cfg.Model, rep, err)
		}
		if len(v) != 0 {
			return nil, fmt.Errorf("%s/%v/%v rep %d: unexpected violation %v", w.Name, cfg.Protocol, cfg.Model, rep, v[0])
		}
		all = append(all, res)
	}
	return all, nil
}

// baseConfig returns the experiment baseline (unprotected: no DVMC, no
// SafetyNet) on the scaled geometry.
func baseConfig(protocol Protocol, model Model) Config {
	cfg := ScaledConfig().WithProtocol(protocol).WithModel(model)
	cfg.DVMC = Off()
	cfg.SafetyNet = false
	return cfg
}

// protectConfig returns the fully protected system (DVMC + SafetyNet).
func protectConfig(protocol Protocol, model Model) Config {
	cfg := ScaledConfig().WithProtocol(protocol).WithModel(model)
	cfg.DVMC = Full()
	cfg.SafetyNet = true
	return cfg
}

// snConfig returns the directory/TSO system with SafetyNet on and the
// given checkers: the SN, SN+DVCC and SN+DVUO bars of Figures 5 and 7.
func snConfig(d DVMCConfig) Config {
	cfg := baseConfig(Directory, TSO)
	cfg.SafetyNet = true
	cfg.DVMC = d
	return cfg
}

// workloadFigure renders one row per workload and one cell per config:
// metric sampled over the config's repetitions on that workload and,
// if normalise, divided by configs[0]'s mean there.
func workloadFigure(name string, t Table, configs []Config, metric func(Results) float64, normalise bool) Figure {
	return Figure{Name: name, configs: configs, view: func(r *runs) Table {
		out := t
		for _, w := range Workloads() {
			out.Rows = append(out.Rows, w.Name)
			row := make([]Cell, 0, len(configs))
			for _, cfg := range configs {
				s := r.over(cfg, w, metric)
				if normalise {
					s = stats.NormalizeBy(s, r.over(configs[0], w, metric).Mean())
				}
				row = append(row, cellOf(s))
			}
			out.Cells = append(out.Cells, row)
		}
		return out
	}}
}

// sweepFigure is a sensitivity sweep of the directory/TSO system: per
// point, the full system's runtime over the base's, averaged over the
// workloads.
func sweepFigure[T any](name, title, row string, points []T, at func(Config, T) Config) Figure {
	t := Table{Title: title, Cols: []string{"normalised runtime"}}
	var configs []Config // base, protected per point
	for _, p := range points {
		t.Rows = append(t.Rows, fmt.Sprintf(row, p))
		configs = append(configs, at(baseConfig(Directory, TSO), p), at(protectConfig(Directory, TSO), p))
	}
	return Figure{Name: name, configs: configs, view: func(r *runs) Table {
		out := t
		for i := 0; i < len(configs); i += 2 {
			agg := &stats.Sample{}
			for _, w := range Workloads() {
				agg.Add(r.over(configs[i+1], w, cycles).Mean() / r.over(configs[i], w, cycles).Mean())
			}
			out.Cells = append(out.Cells, []Cell{cellOf(agg)})
		}
		return out
	}}
}

// runtimeFigure is Figure 3 (directory) or Figure 4 (snooping):
// runtimes of the unprotected base and the full DVMC system under each
// consistency model, normalised per workload to the unprotected SC run.
func runtimeFigure(n int, protocol Protocol) Figure {
	t := Table{
		Title: fmt.Sprintf("Figure %d: runtime normalised to SC-base (%v system)", n, protocol),
		Note:  "lower is faster; Base = unprotected, DVMC = full verification + SafetyNet",
	}
	var configs []Config // Models[0] is SC, so configs[0] is the SC base
	for _, m := range Models {
		t.Cols = append(t.Cols, m.String()+"-base", m.String()+"-dvmc")
		configs = append(configs, baseConfig(protocol, m), protectConfig(protocol, m))
	}
	return workloadFigure(fmt.Sprintf("Figure %d", n), t, configs, cycles, true)
}

// Figures returns Figures 3–9 of the paper's evaluation, in order;
// their table titles say what each shows. Figures 5 and 7 break the
// TSO directory system down into Base, SafetyNet only (SN), SN +
// coherence verification (SN+DVCC), SN + uniprocessor-ordering
// verification (SN+DVUO) and the full system (DVTSO).
func Figures() []Figure {
	base, dvtso := baseConfig(Directory, TSO), protectConfig(Directory, TSO)
	sn, snDVCC := snConfig(Off()), snConfig(DVMCConfig{CacheCoherence: true})
	return []Figure{
		runtimeFigure(3, Directory),
		runtimeFigure(4, Snooping),
		workloadFigure("Figure 5", Table{
			Title: "Figure 5: DVMC component breakdown, TSO directory system",
			Note:  "runtime normalised to the unprotected base",
			Cols:  []string{"Base", "SN", "SN+DVCC", "SN+DVUO", "DVTSO"},
		}, []Config{base, sn, snDVCC, snConfig(DVMCConfig{UniprocessorOrdering: true, AllowableReordering: true}), dvtso}, cycles, true),
		workloadFigure("Figure 6", Table{
			Title: "Figure 6: replay L1 misses normalised to demand L1 misses (TSO directory)",
			Cols:  []string{"replay/demand"},
		}, []Config{dvtso}, Results.ReplayMissRatio, false),
		workloadFigure("Figure 7", Table{
			Title: "Figure 7: mean bandwidth on the highest-loaded link (TSO directory), bytes/cycle",
			Cols:  []string{"Base", "SN", "SN+DVCC", "DVTSO"},
		}, []Config{base, sn, snDVCC, dvtso}, func(r Results) float64 { return r.MaxLinkBandwidth }, false),
		sweepFigure("Figure 8", "Figure 8: DVTSO slowdown vs link bandwidth (directory, mean over workloads)",
			"%.1f GB/s", []float64{1.0, 1.5, 2.0, 2.5, 3.0}, Config.WithLinkGBps),
		sweepFigure("Figure 9", "Figure 9: DVTSO slowdown vs processor count (directory, mean over workloads)",
			"%d", []int{1, 2, 4, 8}, Config.WithNodes),
	}
}

// Figure5 regenerates Figure 5 alone.
func Figure5(opts ExperimentOpts) (Table, error) { return evaluateOne(Figures()[2], opts) }

// ErrorDetectionRow is one row of the Section 6.1 table: a fault
// campaign against one protocol × consistency-model system.
type ErrorDetectionRow struct {
	Protocol Protocol
	Model    Model
}

// ErrorDetectionRows lists the Section 6.1 campaign rows in table
// order (directory first, models in Models order).
func ErrorDetectionRows() []ErrorDetectionRow {
	var rows []ErrorDetectionRow
	for _, protocol := range []Protocol{Directory, Snooping} {
		for _, m := range Models {
			rows = append(rows, ErrorDetectionRow{protocol, m})
		}
	}
	return rows
}

// ErrorDetectionConfig builds one row's fully-protected system
// configuration (tight SafetyNet interval, periodic membar
// injection) — the exact knobs the Section 6.1 campaign has always
// used.
func ErrorDetectionConfig(r ErrorDetectionRow, seed uint64) Config {
	cfg := protectConfig(r.Protocol, r.Model).WithSeed(seed)
	cfg.SNConfig.Interval = 10000
	cfg.SNConfig.Keep = 10
	cfg.Proc.MembarInjectionInterval = 5000
	return cfg
}

// ErrorDetection is the Section 6.1 experiment as a Figure: per
// ErrorDetectionRows row, a campaign of faultsPerConfig injections into
// OLTP of budget cycles each, seeded from seed, reporting detection
// coverage and recoverability. Each injection is one slot of Evaluate's
// pool; the rows in order make its injection index space row-major, and
// the table carries every result in that order (Table.Injections).
func ErrorDetection(faultsPerConfig int, budget uint64, seed uint64) Figure {
	rows := ErrorDetectionRows()
	campaigns := make([]campaignJob, len(rows))
	for i, row := range rows {
		campaigns[i] = campaignJob{ErrorDetectionConfig(row, seed), OLTP(), faultsPerConfig, budget}
	}
	return Figure{Name: "Section 6.1", campaigns: campaigns, view: func(r *runs) Table {
		t := Table{
			Title: "Section 6.1: error-detection campaign (detected / applied; masked faults had no architectural effect)",
			Note:  "unrecoverable: detected with no live pre-error checkpoint, outside SafetyNet's recovery window",
			Cols:  []string{"applied", "detected", "masked", "undetected", "unrecoverable"},
		}
		for i, row := range rows {
			c := r.campaigns[campaigns[i].key()]
			applied, detected, masked, undetected, unrecoverable := c.Counts()
			t.Rows = append(t.Rows, fmt.Sprintf("%v/%v", row.Protocol, row.Model))
			t.Cells = append(t.Cells, []Cell{
				{Mean: float64(applied)}, {Mean: float64(detected)},
				{Mean: float64(masked)}, {Mean: float64(undetected)},
				{Mean: float64(unrecoverable)},
			})
			t.Injections = append(t.Injections, c.Results...)
		}
		return t
	}}
}

// ErrorDetectionTable regenerates the Section 6.1 table alone. workers
// bounds the pool its injections share (1 serial, <=0 min(GOMAXPROCS,
// injections)); the table is identical at any worker count.
func ErrorDetectionTable(faultsPerConfig int, budget uint64, seed uint64, workers int) (Table, error) {
	return evaluateOne(ErrorDetection(faultsPerConfig, budget, seed), ExperimentOpts{Workers: workers})
}
