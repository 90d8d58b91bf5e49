package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"dvmc"
	"dvmc/internal/fuzz"
	"dvmc/internal/telemetry"
)

// caseSpace is a job's case index space, one implementation per job
// kind, built once from the spec (JobSpec.space): everything the
// coordinator and the workers do differently for the two kinds. check
// refuses a result of a shard of the partition that does not carry one
// outcome of the job's kind per case, in index order, for the case the
// space derives; finalize takes every shard's result in shard order.
type caseSpace interface {
	len() int
	run(sh Shard) (ShardResult, error)
	check(r *ShardResult) error
	finalize(results []*ShardResult) (*Output, error)
}

// outcomes refuses a result that does not carry exactly ours outcomes
// of a kind job, one per case of its shard, and none of the other kind.
func outcomes(r *ShardResult, kind JobKind, ours, theirs int) error {
	if ours != r.Shard.To-r.Shard.From || theirs != 0 {
		return fmt.Errorf("%w: shard %d covers cases [%d, %d) of a %s job but carries %d records and %d injection results",
			ErrBadResult, r.Shard.ID, r.Shard.From, r.Shard.To, kind, len(r.Records), len(r.Injections))
	}
	return nil
}

// fuzzSpace is a fuzz campaign: case i is fuzz.CaseAt(cfg, i).
type fuzzSpace struct{ cfg fuzz.CampaignConfig }

func newFuzzSpace(cfg *fuzz.CampaignConfig) (fuzzSpace, error) {
	if cfg == nil {
		return fuzzSpace{}, fmt.Errorf("fabric: %s job without a fuzz config", JobFuzz)
	}
	if err := cfg.Validate(); err != nil {
		return fuzzSpace{}, err
	}
	if cfg.Runs > maxCases {
		return fuzzSpace{}, fmt.Errorf("fabric: fuzz Runs = %d, need <= %d cases", cfg.Runs, maxCases)
	}
	return fuzzSpace{*cfg}, nil
}

func (f fuzzSpace) len() int { return f.cfg.Runs }

func (f fuzzSpace) run(sh Shard) (ShardResult, error) {
	// Corpus writing is the coordinator's finalize step; worker-side
	// config must not touch the (possibly nonexistent) directory.
	cfg := f.cfg
	cfg.CorpusDir = ""
	records, snap, err := fuzz.RunRange(cfg, sh.From, sh.To)
	out := ShardResult{Shard: sh, Records: records}
	if err == nil && snap != nil {
		var buf bytes.Buffer
		err = snap.EncodeJSON(&buf)
		out.Snapshot = json.RawMessage(buf.Bytes())
	}
	return out, err
}

func (f fuzzSpace) check(r *ShardResult) error {
	if err := outcomes(r, JobFuzz, len(r.Records), len(r.Injections)); err != nil {
		return err
	}
	for k, rec := range r.Records {
		if rec.Index != r.Shard.From+k {
			return fmt.Errorf("%w: shard %d carries record %d at case %d", ErrBadResult, r.Shard.ID, rec.Index, r.Shard.From+k)
		}
	}
	return nil
}

// finalize is the one place verdicts become records: every case is
// re-derived by index, and the same fuzz.Finalize pass as the local
// driver's writes the corpus into the spec's CorpusDir and the summary.
func (f fuzzSpace) finalize(results []*ShardResult) (*Output, error) {
	out := &Output{Records: make([]fuzz.Record, 0, f.cfg.Runs)}
	for _, r := range results {
		for _, rec := range r.Records {
			rec.Case = fuzz.CaseAt(f.cfg, rec.Index)
			out.Records = append(out.Records, rec)
		}
	}
	var err error
	out.Summary, err = fuzz.Finalize(f.cfg, out.Records)
	if err == nil && f.cfg.Metrics {
		var snaps []*telemetry.Snapshot
		if snaps, err = snapshots(results); err == nil {
			out.Snapshot, err = telemetry.MergeSnapshots(snaps...)
		}
	}
	return out, err
}

// snapshots decodes the telemetry snapshots results carry, in order
// (nil results, shards not yet accepted, carry none).
func snapshots(results []*ShardResult) ([]*telemetry.Snapshot, error) {
	var snaps []*telemetry.Snapshot
	for _, r := range results {
		if r == nil || len(r.Snapshot) == 0 {
			continue
		}
		s, err := telemetry.DecodeSnapshot(bytes.NewReader(r.Snapshot))
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

// experimentSpace is the Section 6.1 matrix: the injection index space
// of dvmc.ErrorDetection's figure, derived once, whose case i runs as
// the figure's Inject(i).
type experimentSpace struct{ fig dvmc.Figure }

func newExperimentSpace(e *ExperimentSpec) (experimentSpace, error) {
	switch rows := len(dvmc.ErrorDetectionRows()); {
	case e == nil:
		return experimentSpace{}, fmt.Errorf("fabric: %s job without an experiment spec", JobExperiment)
	case e.Faults < 1:
		return experimentSpace{}, fmt.Errorf("fabric: experiment Faults = %d, need >= 1", e.Faults)
	case e.Budget == 0:
		return experimentSpace{}, fmt.Errorf("fabric: experiment Budget = 0")
	case e.Faults > maxCases/rows:
		return experimentSpace{}, fmt.Errorf("fabric: experiment Faults = %d, need <= %d cases over %d rows", e.Faults, maxCases, rows)
	}
	return experimentSpace{e.figure()}, nil
}

func (x experimentSpace) len() int { return len(x.fig.Injections()) }

func (x experimentSpace) run(sh Shard) (ShardResult, error) {
	out := ShardResult{Shard: sh}
	for i := sh.From; i < sh.To; i++ {
		r, err := x.fig.Inject(i)
		if err != nil {
			return out, err
		}
		out.Injections = append(out.Injections, r)
	}
	return out, nil
}

// check also holds each outcome to the injection the space derives for
// its index, judged: a worker reports outcomes and cannot put a case of
// its own, or an unjudged result, into the table.
func (x experimentSpace) check(r *ShardResult) error {
	if err := outcomes(r, JobExperiment, len(r.Injections), len(r.Records)); err != nil {
		return err
	}
	injs := x.fig.Injections()
	for k, res := range r.Injections {
		switch i := r.Shard.From + k; {
		case res.Injection != injs[i]:
			return fmt.Errorf("%w: shard %d reports injection %+v at case %d, which is %+v", ErrBadResult, r.Shard.ID, res.Injection, i, injs[i])
		case !slices.Contains(dvmc.Classes, res.Class):
			return fmt.Errorf("%w: shard %d reports case %d unjudged (class %q)", ErrBadResult, r.Shard.ID, i, res.Class)
		}
	}
	return nil
}

// finalize renders the table: each accepted result covers its shard
// exactly, so the shards' results in shard order are the index space.
func (x experimentSpace) finalize(results []*ShardResult) (*Output, error) {
	injections := make([]dvmc.InjectionResult, 0, x.len())
	for _, r := range results {
		injections = append(injections, r.Injections...)
	}
	t, err := x.fig.View(injections)
	return &Output{Table: t}, err
}
