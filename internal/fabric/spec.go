package fabric

import (
	"fmt"

	"dvmc"
	"dvmc/internal/fuzz"
)

// JobKind selects which campaign family a job shards.
type JobKind string

const (
	// JobFuzz shards a litmus-program fuzzing campaign (internal/fuzz,
	// fuzz.Run): case i of the random prefix is fuzz.DeriveCase(seed, i).
	// Shards are generation-aligned, and a shard in generation g >= 1
	// receives the generation's mutation seed pool with its lease. The
	// coordinator only leases a generation once every earlier one has
	// completed, which is what keeps the farm byte-identical to the local
	// driver; a campaign with Generations == 0 is one generation, all of
	// it leasable at once.
	JobFuzz JobKind = "fuzz"
	// JobExperiment shards the Section 6.1 error-detection matrix: the
	// case space is the injection index space of dvmc.ErrorDetection's
	// figure, and case i runs as its Inject(i).
	JobExperiment JobKind = "experiment"
)

// ExperimentSpec parameterises a JobExperiment: the Section 6.1
// injection matrix with Faults injections per protocol × model row.
type ExperimentSpec struct {
	// Faults is the number of injections per row configuration.
	Faults int `json:"faults"`
	// Budget is the per-injection cycle budget.
	Budget uint64 `json:"budget"`
	// Seed is the campaign master seed (each row derives its injection
	// stream from it via the row config).
	Seed uint64 `json:"seed"`
}

// figure is the matrix the spec parameterises.
func (e ExperimentSpec) figure() dvmc.Figure { return dvmc.ErrorDetection(e.Faults, e.Budget, e.Seed) }

// DefaultShardSize is the lease granularity when the spec leaves it
// zero: small enough that work-stealing re-runs stay cheap, large
// enough that lease round-trips do not dominate.
const DefaultShardSize = 8

// JobSpec describes one campaign for the fabric to shard. It is the
// complete definition of the case space: a worker needs nothing else to
// execute any index range, and two workers given the same spec produce
// byte-identical shard results.
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// Fuzz is the campaign configuration when Kind == JobFuzz. Its
	// CorpusDir and Workers fields are coordinator-side concerns;
	// workers ignore them (shards run serially, corpus writes happen at
	// finalize).
	Fuzz *fuzz.CampaignConfig `json:"fuzz,omitempty"`
	// Experiment parameterises the matrix when Kind == JobExperiment.
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	// ShardSize is the number of cases per lease; 0 picks
	// DefaultShardSize.
	ShardSize int `json:"shard_size,omitempty"`
}

// Validate reports specification errors.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case JobFuzz:
		if s.Fuzz == nil {
			return fmt.Errorf("fabric: %s job without a fuzz config", s.Kind)
		}
		if err := s.Fuzz.Validate(); err != nil {
			return err
		}
	case JobExperiment:
		if s.Experiment == nil {
			return fmt.Errorf("fabric: %s job without an experiment spec", s.Kind)
		}
		if s.Experiment.Faults < 1 {
			return fmt.Errorf("fabric: experiment Faults = %d, need >= 1", s.Experiment.Faults)
		}
		if s.Experiment.Budget == 0 {
			return fmt.Errorf("fabric: experiment Budget = 0")
		}
	default:
		return fmt.Errorf("fabric: unknown job kind %q", s.Kind)
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("fabric: ShardSize = %d, need >= 0", s.ShardSize)
	}
	return nil
}

// TotalCases is the size of the job's global case index space.
func (s JobSpec) TotalCases() int {
	switch s.Kind {
	case JobFuzz:
		if s.Fuzz == nil {
			return 0
		}
		return s.Fuzz.Runs
	case JobExperiment:
		if s.Experiment == nil {
			return 0
		}
		return len(s.Experiment.figure().Injections())
	default:
		return 0
	}
}

// generations is the job's case space as a campaign shape — what the
// partition and the lease gate walk. An experiment is one generation
// over its matrix, like a campaign that breeds nothing.
func (s JobSpec) generations() fuzz.CampaignConfig {
	if s.Kind == JobFuzz && s.Fuzz != nil {
		return *s.Fuzz
	}
	return fuzz.CampaignConfig{Runs: s.TotalCases()}
}

// Shards partitions the case space into contiguous leases of ShardSize
// cases (the last of each generation ragged). Shard IDs are their
// position, so the partition is a pure function of the spec. A shard
// never straddles a generation boundary, because the mutation seed pool
// a shard runs against is per-generation state.
func (s JobSpec) Shards() []Shard {
	size := s.ShardSize
	if size <= 0 {
		size = DefaultShardSize
	}
	var out []Shard
	cc := s.generations()
	for g := 0; g <= cc.Generations; g++ {
		from, to := cc.GenBounds(g)
		for f := from; f < to; f += size {
			out = append(out, Shard{ID: len(out), From: f, To: min(f+size, to)})
		}
	}
	return out
}
