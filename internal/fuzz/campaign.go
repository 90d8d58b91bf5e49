package fuzz

import (
	"fmt"
	"sort"
	"strings"

	"dvmc"
	"dvmc/internal/par"
	"dvmc/internal/sim"
	"dvmc/internal/stats"
	"dvmc/internal/telemetry"
)

// newCaseRand is the per-run stream: forked from the campaign master
// seed by run index, so run i's case is independent of every other run.
func newCaseRand(seed uint64, index int) *sim.Rand {
	return sim.NewRand(seed).Fork(uint64(index))
}

// CampaignConfig shapes a campaign: Runs cases, each derived purely from
// (Seed, run index) by CaseAt, so the whole campaign is a pure function
// of the configuration: byte-identical across worker counts and across
// the local driver and the fabric.
type CampaignConfig struct {
	// Seed is the campaign master seed.
	Seed uint64 `json:"seed"`
	// Runs is the case budget.
	Runs int `json:"runs"`
	// Workers bounds the worker pool; <=0 picks min(GOMAXPROCS, Runs)
	// so small hosts never oversubscribe (1 runs serially).
	Workers int `json:"workers"`
	// FaultFrac is the fraction of runs that inject a fault.
	FaultFrac float64 `json:"fault_frac"`
	// Budget is the per-run cycle budget (whole run for fault-free
	// cases, post-injection window for fault cases). Zero picks a
	// default.
	Budget uint64 `json:"budget"`
	// CorpusDir, when nonempty, receives minimized reproducers for
	// every failing run.
	CorpusDir string `json:"corpus_dir,omitempty"`
	// Minimize enables delta-debugging of failures before they are
	// written to the corpus.
	Minimize bool `json:"minimize"`
	// MinimizeBudget bounds the minimizer's re-run count per failure;
	// zero picks a default.
	MinimizeBudget int `json:"minimize_budget,omitempty"`
	// Metrics merges the per-case telemetry snapshots into one canonical
	// campaign-level snapshot (telemetry.MergeSnapshots). Classification
	// is unaffected — telemetry observes the simulation without
	// perturbing it — and the merged snapshot is byte-identical at any
	// worker count, shard split, or merge order.
	Metrics bool `json:"metrics,omitempty"`
	// Kinds restricts derived faults to the named dvmc.FaultKind pool
	// (targeted campaigns over e.g. only the hostile message classes).
	// Empty means every kind.
	Kinds []string `json:"kinds,omitempty"`
}

// DefaultBudget is the per-run cycle budget when none is given: enough
// for the default program shape to finish many times over, small enough
// that hangs surface quickly.
const DefaultBudget = 200_000

// Validate reports configuration errors.
func (cc CampaignConfig) Validate() error {
	switch {
	case cc.Runs < 1:
		return fmt.Errorf("fuzz: Runs = %d, need >= 1", cc.Runs)
	case cc.FaultFrac < 0 || cc.FaultFrac > 1:
		return fmt.Errorf("fuzz: FaultFrac = %v, need 0..1", cc.FaultFrac)
	}
	for _, k := range cc.Kinds {
		if _, err := dvmc.ParseFaultKind(k); err != nil {
			return fmt.Errorf("fuzz: Kinds: %w", err)
		}
	}
	return nil
}

// withDefaults resolves every zero-means-default field: the one place
// they are defaulted, which each entry point applies to the
// configuration it is handed.
func (cc CampaignConfig) withDefaults() CampaignConfig {
	if cc.Budget == 0 {
		cc.Budget = DefaultBudget
	}
	if cc.MinimizeBudget <= 0 {
		cc.MinimizeBudget = DefaultMinimizeBudget
	}
	return cc
}

// ParseKinds splits a comma-separated fault-kind pool ("" = every kind).
func ParseKinds(s string) []string {
	var out []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			out = append(out, k)
		}
	}
	return out
}

// Record is one campaign run's identity and outcome.
type Record struct {
	Index  int            `json:"index"`
	Case   *Case          `json:"case"`
	Result dvmc.Judgement `json:"result"`
	// Minimized is the delta-debugged reproducer for failures (nil when
	// minimization is off or the run passed).
	Minimized *Case `json:"minimized,omitempty"`
	// CorpusFile is the corpus path the reproducer was written to.
	CorpusFile string `json:"corpus_file,omitempty"`
}

// Summary aggregates a campaign.
type Summary struct {
	Seed   uint64             `json:"seed"`
	Runs   int                `json:"runs"`
	Counts map[dvmc.Class]int `json:"counts"`
	// ByKind breaks Counts down by the injected fault kind ("none" for a
	// fault-free run). It is in the JSON only; String prints Counts.
	ByKind map[string]map[dvmc.Class]int `json:"by_kind"`
	// Failures counts escape + false-alarm + crash runs.
	Failures int `json:"failures"`
	// Latency statistics over agree-detect runs, in cycles.
	LatencyP50  float64 `json:"latency_p50,omitempty"`
	LatencyP99  float64 `json:"latency_p99,omitempty"`
	LatencyMax  float64 `json:"latency_max,omitempty"`
	LatencyHist string  `json:"latency_hist,omitempty"`
}

// Failed reports whether the campaign found any failure.
func (s Summary) Failed() bool { return s.Failures > 0 }

// String renders the classification table in reporting order.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign seed=%d runs=%d\n", s.Seed, s.Runs)
	for _, c := range dvmc.Classes {
		if n := s.Counts[c]; n > 0 {
			fmt.Fprintf(&b, "  %-12s %d\n", c, n)
		}
	}
	if s.LatencyMax > 0 {
		fmt.Fprintf(&b, "  detection latency p50=%.0f p99=%.0f max=%.0f cycles\n",
			s.LatencyP50, s.LatencyP99, s.LatencyMax)
	}
	return b.String()
}

// DeriveCase builds run index i's case: a pure function of the campaign
// seed and the index, independent of every other run.
func DeriveCase(seed uint64, index int, faultFrac float64, budget uint64) *Case {
	return deriveCase(seed, index, faultFrac, budget, nil)
}

// models and protocols the deriver cycles through.
var (
	caseModels    = []string{"SC", "TSO", "PSO", "RMO"}
	caseProtocols = []string{"directory", "snooping"}
)

func deriveCase(seed uint64, index int, faultFrac float64, budget uint64, kinds []string) *Case {
	// One forked stream per run index: run i's case never changes when
	// the campaign grows or shrinks around it.
	rng := newCaseRand(seed, index)

	gp := DefaultGenParams(rng.Uint64())
	// Perturb the program shape.
	gp.Threads = 2 + rng.Intn(3)            // 2..4 threads
	gp.OpsPerThread = 8 + rng.Intn(57)      // 8..64 ops
	gp.Blocks = 1 + rng.Intn(4)             // 1..4 blocks
	gp.WordsPerBlock = 1 + rng.Intn(4)      // 1..4 words
	gp.ReadFrac = 0.30 + 0.40*rng.Float64() // 0.30..0.70
	gp.RMWFrac = 0.15 * rng.Float64()       // 0..0.15
	gp.MembarFrac = 0.15 * rng.Float64()    // 0..0.15
	gp.Bits32Frac = 0.20 * rng.Float64()    // 0..0.20
	gp.MaxGap = rng.Intn(5)                 // 0..4

	prog, err := gp.Generate()
	if err != nil {
		// Unreachable: the perturbed ranges are all valid. Keep the
		// deriver total anyway.
		panic(err)
	}

	c := &Case{
		Name:     fmt.Sprintf("run-%06d", index),
		Model:    caseModels[rng.Intn(len(caseModels))],
		Protocol: caseProtocols[rng.Intn(len(caseProtocols))],
		Seed:     rng.Uint64(),
		Budget:   budget,
		DVMC:     true,
		Program:  *prog,
	}
	if rng.Bool(faultFrac) {
		names := kinds
		if len(names) == 0 {
			names = FaultKindNames()
		}
		// Aim the injection at the window where the program is still
		// running: short random programs retire a handful of ops per
		// hundred cycles, so scale the target cycle to program size.
		window := uint64(prog.NumOps()) * 40
		if window < 200 {
			window = 200
		}
		c.Fault = &FaultSpec{
			Kind:  names[rng.Intn(len(names))],
			Node:  rng.Intn(gp.Threads),
			Cycle: 50 + rng.Uint64n(window),
		}
		deriveFaultExtras(rng, c)
	}
	return c
}

// deriveFaultExtras draws the chosen kind's fault parameters from the
// ranges its dvmc.FaultKind declares, after every base draw so existing
// kinds keep their streams, and turns SafetyNet on for a kind that is
// only meaningful with it.
func deriveFaultExtras(rng *sim.Rand, c *Case) {
	// An unknown name (a Kinds pool nobody validated) parses to kind 0,
	// which draws nothing; the case then fails Validate when it runs.
	k, _ := dvmc.ParseFaultKind(c.Fault.Kind)
	window, magnitude := k.DrawParams(rng)
	c.Fault.Window, c.Fault.Magnitude = uint64(window), magnitude
	c.SafetyNet = c.SafetyNet || k.NeedsSafetyNet()
}

// CaseAt builds run index i's case: a pure function of the campaign
// configuration and the index, independent of every other run. Every
// record a campaign produces satisfies
//
//	Record.Case == CaseAt(cfg, Record.Index)
//
// and the fabric depends on it: shard results carry verdicts only, and
// the coordinator re-derives each case.
func CaseAt(cfg CampaignConfig, i int) *Case {
	cfg = cfg.withDefaults()
	return deriveCase(cfg.Seed, i, cfg.FaultFrac, cfg.Budget, cfg.Kinds)
}

// runOne executes run index i of the campaign: build the case, run it
// and — for failures — attach the minimized reproducer. Every step is a
// pure function of (cfg, i), so the record (and snapshot) are identical
// wherever the run executes: a local goroutine pool or a fabric worker
// on another machine.
func runOne(cfg CampaignConfig, i int) (Record, *telemetry.Snapshot) {
	c := CaseAt(cfg, i)
	// Streamed: campaign workers never materialize a trace — the oracle
	// rides the run as a sink and only failure reproduction (Finalize)
	// re-runs with byte capture.
	res, snap, err := RunCaseStreamed(c, cfg.Metrics)
	if err != nil {
		// Structural errors cannot occur for derived cases; record them
		// as crashes so the campaign survives.
		res = dvmc.Judgement{Class: dvmc.ClassCrash, Panic: err.Error()}
		snap = nil
	}
	rec := Record{Index: i, Case: c, Result: res}
	if rec.Result.Class.Failure() {
		repro := rec.Case.Clone()
		repro.Expect = rec.Result.Class
		if cfg.Minimize {
			if min, err := Minimize(repro, cfg.MinimizeBudget); err == nil {
				repro = min
			}
		}
		rec.Minimized = repro
	}
	return rec, snap
}

// runRange is the shard primitive under both drivers: runs [from, to) on
// a bounded worker pool, each run writing its own slot. The snapshots
// are empty unless cfg.Metrics.
func runRange(cfg CampaignConfig, from, to, workers int) ([]Record, []*telemetry.Snapshot) {
	sampled := 0
	if cfg.Metrics {
		sampled = to - from
	}
	// Each assigned once, so the closure holds them by value.
	records, snaps := make([]Record, to-from), make([]*telemetry.Snapshot, sampled)
	par.For(to-from, workers, func(k int) {
		rec, snap := runOne(cfg, from+k)
		records[k] = rec
		if sampled > 0 {
			snaps[k] = snap
		}
	})
	return records, snaps
}

// mergeMetrics is the campaign-level snapshot: nil unless cfg.Metrics.
func mergeMetrics(cfg CampaignConfig, snaps []*telemetry.Snapshot) (*telemetry.Snapshot, error) {
	if !cfg.Metrics {
		return nil, nil
	}
	return telemetry.MergeSnapshots(snaps...)
}

// RunRange executes runs [from, to) serially and returns their records
// in index order plus, when cfg.Metrics, the canonical merge of their
// telemetry snapshots — the shard unit the fabric's workers execute.
// Corpus writing is the merge side's job (Finalize), not the shard's.
func RunRange(cfg CampaignConfig, from, to int) ([]Record, *telemetry.Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	if from < 0 || to > cfg.Runs || from > to {
		return nil, nil, fmt.Errorf("fuzz: RunRange: range [%d, %d) outside 0..%d", from, to, cfg.Runs)
	}
	records, snaps := runRange(cfg, from, to, 1)
	merged, err := mergeMetrics(cfg, snaps)
	return records, merged, err
}

// Finalize is the campaign's merge step, shared by the local driver and
// the fabric coordinator so corpus bytes cannot diverge between them. It
// persists the failure reproducers of a complete record table into
// cfg.CorpusDir in ascending index order, filling in each record's
// CorpusFile (records already carry their Minimized reproducers; each is
// re-run once to capture its trace next to the case, for offline
// inspection with dvmc-stat check), and assembles the summary. An empty
// CorpusDir writes nothing.
func Finalize(cfg CampaignConfig, records []Record) (Summary, error) {
	cfg = cfg.withDefaults()
	dir := cfg.CorpusDir
	for i := range records {
		rec := &records[i]
		if dir == "" || !rec.Result.Class.Failure() || rec.Minimized == nil {
			continue
		}
		name := corpusName(rec)
		path, err := WriteCase(dir, name, rec.Minimized)
		if err != nil {
			return Summary{}, err
		}
		rec.CorpusFile = path
		if _, trace, err := RunCase(rec.Minimized); err == nil && len(trace) > 0 {
			if _, err := WriteTrace(dir, name, trace); err != nil {
				return Summary{}, err
			}
		}
	}
	return summarize(cfg.Seed, records), nil
}

// Run is the local campaign driver: every run on a bounded worker pool
// writing disjoint slots of the record table, then the artifacts, by
// Finalize, so the campaign's entire output is byte-identical across
// invocations and worker counts. Returns the records in index order, the
// summary, and the merged telemetry snapshot when cfg.Metrics is on (nil
// otherwise).
func Run(cfg CampaignConfig) ([]Record, Summary, *telemetry.Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Summary{}, nil, err
	}
	cfg = cfg.withDefaults()
	records, snaps := runRange(cfg, 0, cfg.Runs, cfg.Workers)
	sum, err := Finalize(cfg, records)
	if err != nil {
		return records, Summary{}, nil, err
	}
	merged, err := mergeMetrics(cfg, snaps)
	return records, sum, merged, err
}

// corpusName labels a failing run's reproducer file.
func corpusName(rec *Record) string {
	return fmt.Sprintf("%s-seed%d-%06d", rec.Result.Class, caseSeedOf(rec), rec.Index)
}

func caseSeedOf(rec *Record) uint64 {
	if rec.Case != nil {
		return rec.Case.Seed
	}
	return 0
}

// summarize builds the classification table and latency statistics
// over a complete record table.
func summarize(seed uint64, records []Record) Summary {
	s := Summary{
		Seed:   seed,
		Runs:   len(records),
		Counts: make(map[dvmc.Class]int),
		ByKind: make(map[string]map[dvmc.Class]int),
	}
	var lat stats.Sample
	for i := range records {
		r := &records[i]
		s.Counts[r.Result.Class]++
		kind := "none"
		if r.Case != nil && r.Case.Fault != nil {
			kind = r.Case.Fault.Kind
		}
		if s.ByKind[kind] == nil {
			s.ByKind[kind] = make(map[dvmc.Class]int)
		}
		s.ByKind[kind][r.Result.Class]++
		if r.Result.Class.Failure() {
			s.Failures++
		}
		if r.Result.Class == dvmc.ClassAgreeDetect {
			lat.Add(float64(r.Result.Latency))
		}
	}
	if lat.N() > 0 {
		s.LatencyP50 = lat.Quantile(0.5)
		s.LatencyP99 = lat.Quantile(0.99)
		s.LatencyMax = lat.Quantile(1)
		s.LatencyHist = stats.FormatHistogram(lat.Histogram(8))
	}
	return s
}

// SortRecordsByClass groups records for reporting: failures first, then
// the rest, stable within class by index.
func SortRecordsByClass(records []Record) []Record {
	out := append([]Record(nil), records...)
	rank := make(map[dvmc.Class]int, len(dvmc.Classes))
	for i, c := range dvmc.Classes {
		rank[c] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := out[i].Result.Class.Failure(), out[j].Result.Class.Failure()
		if fi != fj {
			return fi
		}
		ri, rj := rank[out[i].Result.Class], rank[out[j].Result.Class]
		if ri != rj {
			return ri < rj
		}
		return out[i].Index < out[j].Index
	})
	return out
}
