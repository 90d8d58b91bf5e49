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
	// fuzz.Run): case i is fuzz.CaseAt(cfg, i).
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

// maxCases bounds a job's case space. Validate refuses a larger one
// before anything sized by the count (the shard partition, the
// injection list) is allocated, so a damaged or hostile journal cannot
// make resume allocate without limit.
const maxCases = 1 << 20

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
		if s.Fuzz.Runs > maxCases {
			return fmt.Errorf("fabric: fuzz Runs = %d, need <= %d cases", s.Fuzz.Runs, maxCases)
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
		if rows := len(dvmc.ErrorDetectionRows()); s.Experiment.Faults > maxCases/rows {
			return fmt.Errorf("fabric: experiment Faults = %d, need <= %d cases over %d rows", s.Experiment.Faults, maxCases, rows)
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

// Shards partitions the case space into contiguous leases of ShardSize
// cases, the last one ragged. Shard IDs are their position, so the
// partition is a pure function of the spec.
func (s JobSpec) Shards() []Shard {
	size := s.ShardSize
	if size <= 0 {
		size = DefaultShardSize
	}
	var out []Shard
	for n, f := s.TotalCases(), 0; f < n; f += size {
		out = append(out, Shard{ID: len(out), From: f, To: min(f+size, n)})
	}
	return out
}
