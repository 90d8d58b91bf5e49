package fuzz

import (
	"fmt"
	"path/filepath"

	"dvmc/internal/sim"
	"dvmc/internal/telemetry"
)

// covSalt separates the mutation random streams from the derivation
// streams: generation-g mutants fork from Seed^covSalt by global run
// index, so a mutant's randomness never collides with the random
// prefix's, and every case remains a pure function of (config, index,
// earlier records).
const covSalt = 0x636f76 // "cov"

// CoverageConfig shapes a coverage-guided campaign: a random prefix of
// InitRuns cases (byte-identical to the plain campaign's first
// InitRuns, which is what makes coverage-vs-random comparisons fair),
// followed by Generations breeding rounds of PerGen mutants each. Each
// round's mutants are bred from the seed pool distilled — in ascending
// run-index order — from every earlier run's coverage features, so the
// whole campaign is a pure function of the configuration: byte-
// identical across worker counts and across the serial driver and the
// fabric.
type CoverageConfig struct {
	// Campaign supplies the base knobs: Seed, Workers, FaultFrac,
	// Budget, CorpusDir, Minimize, Metrics, Kinds. Its Runs field is
	// ignored — the case count is InitRuns + Generations*PerGen.
	Campaign CampaignConfig `json:"campaign"`
	// InitRuns is the size of the random generation 0.
	InitRuns int `json:"init_runs"`
	// Generations is the number of breeding rounds after generation 0.
	Generations int `json:"generations"`
	// PerGen is the number of mutants per breeding round.
	PerGen int `json:"per_gen"`
}

// Validate reports configuration errors.
func (cc CoverageConfig) Validate() error {
	base := cc.Campaign
	base.Runs = cc.TotalRuns()
	if err := base.Validate(); err != nil {
		return err
	}
	switch {
	case cc.InitRuns < 1:
		return fmt.Errorf("fuzz: InitRuns = %d, need >= 1", cc.InitRuns)
	case cc.Generations < 0:
		return fmt.Errorf("fuzz: Generations = %d, need >= 0", cc.Generations)
	case cc.Generations > 0 && cc.PerGen < 1:
		return fmt.Errorf("fuzz: PerGen = %d, need >= 1 with Generations > 0", cc.PerGen)
	}
	return nil
}

// TotalRuns is the campaign's case count across all generations.
func (cc CoverageConfig) TotalRuns() int {
	if cc.Generations <= 0 {
		return cc.InitRuns
	}
	return cc.InitRuns + cc.Generations*cc.PerGen
}

// GenBounds returns generation g's global index range [from, to):
// generation 0 is the random prefix, generation g >= 1 the g-th
// breeding round.
func (cc CoverageConfig) GenBounds(g int) (from, to int) {
	if g <= 0 {
		return 0, cc.InitRuns
	}
	from = cc.InitRuns + (g-1)*cc.PerGen
	return from, from + cc.PerGen
}

// GenOf maps a global run index to its generation.
func (cc CoverageConfig) GenOf(index int) int {
	if index < cc.InitRuns {
		return 0
	}
	return 1 + (index-cc.InitRuns)/cc.PerGen
}

// normalized fills the config's defaulted fields.
func (cc CoverageConfig) normalized() CoverageConfig {
	if cc.Campaign.Budget == 0 {
		cc.Campaign.Budget = DefaultBudget
	}
	if cc.Campaign.MinimizeBudget <= 0 {
		cc.Campaign.MinimizeBudget = DefaultMinimizeBudget
	}
	cc.Campaign.Runs = cc.TotalRuns()
	return cc
}

// DeriveCoverageCase builds the case for global run index i. Indices in
// generation 0 derive exactly like the plain campaign's; later indices
// breed a mutant from the generation's seed pool — the distilled cases
// of every earlier generation, which the caller supplies (the serial
// driver accumulates it; fabric workers receive it with their lease).
func DeriveCoverageCase(cc CoverageConfig, index int, pool []*Case) *Case {
	cc = cc.normalized()
	base := cc.Campaign
	if index < cc.InitRuns || len(pool) == 0 {
		// An empty pool is only reachable if every prior run produced
		// zero features — impossible in practice (the first record always
		// has novel features) but kept total for robustness.
		return deriveCase(base.Seed, index, base.FaultFrac, base.Budget, base.Kinds)
	}
	rng := sim.NewRand(base.Seed ^ covSalt).Fork(uint64(index))
	seed := pool[rng.Intn(len(pool))]
	c := mutateCase(rng, seed, base.Kinds)
	c.Name = fmt.Sprintf("cov-%06d", index)
	if c.Validate() != nil {
		// Mutators preserve validity by construction; if one ever
		// regresses, fall back to a fresh random case rather than
		// crashing the campaign.
		return deriveCase(base.Seed, index, base.FaultFrac, base.Budget, base.Kinds)
	}
	return c
}

// runOneCov executes global run index i against the generation's seed
// pool. Coverage campaigns always instrument: the telemetry snapshot is
// the raw material of the coverage signature.
func runOneCov(cc CoverageConfig, i int, pool []*Case) (Record, *telemetry.Snapshot) {
	c := DeriveCoverageCase(cc, i, pool)
	rec, snap := execRecord(cc.Campaign, i, c, true)
	rec.Features = CaseFeatures(c, rec.Result, snap)
	if !cc.Campaign.Metrics {
		snap = nil
	}
	return rec, snap
}

// RunCoverageRange executes global indices [from, to) serially against
// the given seed pool — the shard unit fabric workers execute for
// coverage jobs. The range must lie within a single generation (the
// coordinator's shards are generation-aligned), because the pool is
// per-generation state.
func RunCoverageRange(cc CoverageConfig, pool []*Case, from, to int) ([]Record, *telemetry.Snapshot, error) {
	cc = cc.normalized()
	if from < 0 || to > cc.TotalRuns() || from > to {
		return nil, nil, fmt.Errorf("fuzz: RunCoverageRange: range [%d, %d) outside 0..%d", from, to, cc.TotalRuns())
	}
	if from < to && cc.GenOf(from) != cc.GenOf(to-1) {
		return nil, nil, fmt.Errorf("fuzz: RunCoverageRange: range [%d, %d) spans generations %d..%d",
			from, to, cc.GenOf(from), cc.GenOf(to-1))
	}
	records := make([]Record, 0, to-from)
	var snaps []*telemetry.Snapshot
	for i := from; i < to; i++ {
		rec, snap := runOneCov(cc, i, pool)
		records = append(records, rec)
		if snap != nil {
			snaps = append(snaps, snap)
		}
	}
	var merged *telemetry.Snapshot
	if cc.Campaign.Metrics {
		var err error
		merged, err = telemetry.MergeSnapshots(snaps...)
		if err != nil {
			return records, nil, err
		}
	}
	return records, merged, nil
}

// CoveragePool distills the mutation seed pool available to generation
// gen from a record table whose generations < gen are complete: the
// ascending-index walk over their features that both the serial driver
// and the fabric coordinator perform, so the pool — and everything bred
// from it — is identical wherever the campaign runs.
func CoveragePool(cc CoverageConfig, records []Record, gen int) []*Case {
	cm := newCoverageMap()
	from, _ := cc.GenBounds(gen)
	for i := 0; i < from && i < len(records); i++ {
		cm.add(&records[i])
	}
	return cm.pool
}

// CoverageSummary extends the campaign summary with the coverage map's
// final shape.
type CoverageSummary struct {
	Summary
	// InitRuns/Generations/PerGen echo the campaign shape.
	InitRuns    int `json:"init_runs"`
	Generations int `json:"generations"`
	PerGen      int `json:"per_gen"`
	// Features is the number of distinct coverage features reached.
	Features int `json:"features"`
	// NewByGen is the count of first-seen features per generation
	// (index 0 = the random prefix).
	NewByGen []int `json:"new_by_gen"`
	// PoolSize is the final seed-pool size: runs that added coverage.
	PoolSize int `json:"pool_size"`
}

// String renders the summary with its coverage shape.
func (s CoverageSummary) String() string {
	out := s.Summary.String()
	out += fmt.Sprintf("  coverage features=%d pool=%d new-by-gen=%v\n",
		s.Features, s.PoolSize, s.NewByGen)
	return out
}

// FinalizeCoverage is the coverage campaign's merge step, shared by the
// serial driver and the fabric coordinator: persist failure reproducers
// (FinalizeRecords), re-distill the full record table in ascending
// index order, write the distilled seed corpus under
// CorpusDir/distilled, and assemble the summary.
func FinalizeCoverage(cc CoverageConfig, records []Record) (CoverageSummary, error) {
	cc = cc.normalized()
	if err := FinalizeRecords(records, cc.Campaign.CorpusDir); err != nil {
		return CoverageSummary{}, err
	}
	cm := newCoverageMap()
	newByGen := make([]int, cc.Generations+1)
	var distilled []*Record
	for i := range records {
		rec := &records[i]
		if novel := cm.add(rec); novel > 0 {
			newByGen[cc.GenOf(rec.Index)] += novel
			distilled = append(distilled, rec)
		}
	}
	if dir := cc.Campaign.CorpusDir; dir != "" {
		for _, rec := range distilled {
			name := fmt.Sprintf("seed-%06d", rec.Index)
			if _, err := WriteCase(filepath.Join(dir, "distilled"), name, rec.Case); err != nil {
				return CoverageSummary{}, err
			}
		}
	}
	return CoverageSummary{
		Summary:     Summarize(cc.Campaign.Seed, records),
		InitRuns:    cc.InitRuns,
		Generations: cc.Generations,
		PerGen:      cc.PerGen,
		Features:    len(cm.features),
		NewByGen:    newByGen,
		PoolSize:    len(cm.pool),
	}, nil
}

// RunCoverage is the serial/multi-worker coverage campaign driver: each
// generation runs on a bounded worker pool writing disjoint slots of
// the record table, with a barrier and an ascending-index distillation
// between generations (a mutant may only see seeds from completed
// generations — the property that makes the campaign worker-count
// independent). Returns the records in index order, the summary, and
// the merged telemetry snapshot when Metrics is on.
func RunCoverage(cc CoverageConfig) ([]Record, CoverageSummary, *telemetry.Snapshot, error) {
	if err := cc.Validate(); err != nil {
		return nil, CoverageSummary{}, nil, err
	}
	cc = cc.normalized()
	total := cc.TotalRuns()
	records := make([]Record, total)
	snaps := make([]*telemetry.Snapshot, total)
	cm := newCoverageMap()
	for g := 0; g <= cc.Generations; g++ {
		from, to := cc.GenBounds(g)
		pool := cm.pool
		forEachIndex(from, to, cc.Campaign.Workers, func(i int) {
			records[i], snaps[i] = runOneCov(cc, i, pool)
		})
		// Barrier passed; fold the generation in ascending index order.
		for i := from; i < to; i++ {
			cm.add(&records[i])
		}
	}
	sum, err := FinalizeCoverage(cc, records)
	if err != nil {
		return records, CoverageSummary{}, nil, err
	}
	var merged *telemetry.Snapshot
	if cc.Campaign.Metrics {
		merged, err = telemetry.MergeSnapshots(snaps...)
		if err != nil {
			return records, sum, nil, err
		}
	}
	return records, sum, merged, nil
}
