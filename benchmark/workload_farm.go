package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dvmc/internal/fabric"
	"dvmc/internal/fuzz"
	"dvmc/internal/telemetry"
)

// fuzz-farm: one fuzz campaign through the distributed fabric, in one
// process: coordinator with a checkpoint file behind an HTTP test
// server, W workers leasing shards from it.

const (
	farmReps      = 5
	farmCases     = 600 // per repetition at scale 1: 1 to 2 s at 2 workers
	farmShardSize = 8
	farmFaultFrac = 0.5
	farmStageReps = 5   // repetitions of each traced stage loop
	farmStageMax  = 100 // cases per traced stage loop
)

// referenceSetups is how many times fuzz-farm and paper-eval compute
// their expected output: it is their set-up, and one sample of a
// multi-second computation is at the mercy of the host.
const referenceSetups = 2

// farmKinds is the fault pool of the campaign: every kind but the six
// whose cases the fuzzer classifies as escapes at the commit that
// defined the benchmark (per 4000 single-kind cases: msg-data-flip 128,
// cache-data-flip 68, ctrl-silent-write 48, msg-drop 37, lsq-value-flip
// 4, lsq-bad-forward 1; the other thirteen 0). A benchmark workload is
// one on which no operation fails, so that a later failed > 0 is news.
var farmKinds = []string{
	"msg-duplicate", "msg-misroute", "msg-reorder", "msg-stale-dup", "msg-reorder-burst",
	"memory-data-flip", "wb-reorder", "wb-drop", "wb-corrupt",
	"ctrl-permission-drop", "ctrl-state-corrupt", "lt-skew", "nested-recovery",
}

func farmSpec(seed uint64, cases int) fabric.JobSpec {
	return fabric.JobSpec{
		Kind:      fabric.JobFuzz,
		Fuzz:      &fuzz.CampaignConfig{Seed: seed, Runs: cases, FaultFrac: farmFaultFrac, Kinds: farmKinds},
		ShardSize: farmShardSize,
	}
}

// farmRep is one timed repetition: NewCoordinator to Finalize returning.
type farmRep struct {
	wall     float64
	finalize float64
	records  []fuzz.Record
}

func runFarmRep(e *env, spec fabric.JobSpec, rep int, rec *Recorder, parent int) (farmRep, error) {
	var out farmRep
	ckpt := filepath.Join(e.tmp, fmt.Sprintf("farm-%d.ckpt", rep))
	defer os.Remove(ckpt)
	repSpan := rec.Begin(parent, 0, "farm-repetition")
	defer rec.End(repSpan)

	start := time.Now()
	id := rec.Begin(repSpan, 0, "fabric.NewCoordinator")
	coord, err := fabric.NewCoordinator(spec, fabric.CoordinatorOptions{CheckpointPath: ckpt})
	rec.End(id)
	if err != nil {
		return out, err
	}
	defer coord.Close()
	id = rec.Begin(repSpan, 0, "httptest.NewServer")
	srv := httptest.NewServer(coord)
	rec.End(id)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, e.W)
	wait := rec.Begin(repSpan, 0, "wait:Coordinator.Done")
	for w := 0; w < e.W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := rec.Begin(wait, w+1, "fabric.RunWorker")
			_, errs[w] = fabric.RunWorker(ctx, fabric.WorkerOptions{
				Name: fmt.Sprintf("w%d", w), Coordinator: srv.URL,
			})
			rec.End(id)
		}(w)
	}
	// A worker that fails never completes its shards, so wait for the
	// workers as well as for the job.
	workersGone := make(chan struct{})
	go func() { wg.Wait(); close(workersGone) }()
	select {
	case <-coord.Done():
	case <-workersGone:
	}
	rec.End(wait)

	var fin *fabric.Output
	select {
	case <-coord.Done():
		t := time.Now()
		id = rec.Begin(repSpan, 0, "Coordinator.Finalize")
		fin, err = coord.Finalize()
		rec.End(id)
		out.finalize = time.Since(t).Seconds()
	default:
		err = fmt.Errorf("workers left before the job finished")
	}
	out.wall = time.Since(start).Seconds()

	// Untimed: stop the workers (one may be in its idle poll) and wait.
	cancel()
	wg.Wait()
	for _, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) && err == nil {
			err = werr
		}
	}
	if err != nil {
		return out, err
	}
	out.records = fin.Records
	return out, nil
}

func runFarm(e *env, def WorkloadDef) (*WorkloadResult, error) {
	res := newWorkloadResult(def)
	cases := int(math.Max(farmShardSize, math.Round(farmCases*e.scale)))
	spec := farmSpec(e.seed, cases)

	// Set-up builds the expected output: the same campaign run serially
	// in this process, which is also the serial rate the farm is
	// compared with.
	var want []fuzz.Record
	var err error
	e.rec.Do(e.root, "setup:fuzz.RunRange", func(int) {
		for i := 0; i < referenceSetups && err == nil; i++ {
			t := time.Now()
			want, _, err = fuzz.RunRange(*spec.Fuzz, 0, cases)
			res.SetupSamples = append(res.SetupSamples, time.Since(t).Seconds())
		}
	})
	if err != nil {
		return nil, err
	}
	serial := summarize(res.SetupSamples).RuleTime()
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return nil, err
	}
	failing := 0
	for i := range want {
		if want[i].Result.Class.Failure() {
			failing++
		}
	}

	// One unit is one repetition, judged after timing: the run is
	// incorrect unless every repetition's merged records are the serial
	// run's, byte for byte.
	repFn := func(out []farmRep, rec *Recorder, parent int) func(int) {
		return func(r int) {
			if err == nil {
				out[r], err = runFarmRep(e, spec, r, rec, parent)
			}
		}
	}
	plain, traced := make([]farmRep, farmReps), make([]farmRep, farmReps)
	runtime.GOMAXPROCS(e.procs)
	e.timedPass(res, farmReps, float64(cases), repFn(plain, nil, -1),
		func(parent int) func(int) { return repFn(traced, e.rec, parent) })
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, err
	}
	var finals []float64
	reps := plain
	if e.traced {
		reps = append(reps, traced...)
	}
	for r, rep := range reps {
		got, jerr := json.Marshal(rep.records)
		if jerr != nil || !bytes.Equal(got, wantJSON) {
			res.incorrect("repetition %d: merged farm records differ from serial fuzz.RunRange", r)
		}
		finals = append(finals, rep.finalize)
	}
	res.Attempted = farmReps * cases
	if failing > 0 {
		res.fail(farmReps*failing, "%d of %d cases classify as escape, false-alarm or crash (per repetition)", failing, cases)
	}
	if !e.traced {
		return res, nil
	}

	plainRate := res.EndToEnd[mRate].Value
	res.setLayer("fabric.finalize_ms", summarize(finals).RuleTime()*1e3)
	serialRate := float64(cases) / serial
	res.setLayer("fuzz.serial_cases_per_s", serialRate)
	res.setLayer("fabric.speedup_vs_serial", plainRate/serialRate)
	// Idle wait: the repetition's wall time beyond an even split of the
	// serial execution time over the workers.
	res.setLayer("fabric.idle_wait_ms", (res.Timing.RuleTime()-serial/float64(e.W))*1e3)
	e.rec.Do(e.root, "stages", func(id int) { err = farmStages(e, res, spec, want, id) })
	return res, err
}

// fastestPerOp runs loop reps times and returns the fastest run's time
// per op in seconds.
func fastestPerOp(reps, ops int, loop func()) float64 {
	return summarize(timeChunks(reps, func(int) { loop() })).Min / float64(ops)
}

// farmStages drives the public calls a farm repetition is made of, one
// at a time.
func farmStages(e *env, res *WorkloadResult, spec fabric.JobSpec, want []fuzz.Record, parent int) error {
	n := min(len(want), farmStageMax)
	cfg := *spec.Fuzz

	// DeriveCase is timed for its cost only: the exported deriver draws
	// from every fault kind, so the stages below run the campaign's own
	// cases, taken from the serial records.
	e.rec.Do(parent, "fuzz.DeriveCase", func(int) {
		res.setLayer("fuzz.derive_us_per_case", 1e6*fastestPerOp(farmStageReps, n, func() {
			for i := 0; i < n; i++ {
				sinkU64 += fuzz.DeriveCase(cfg.Seed, i, cfg.FaultFrac, fuzz.DefaultBudget).Seed
			}
		}))
	})
	cs := make([]*fuzz.Case, n)
	for i := range cs {
		cs[i] = want[i].Case
	}

	var stageErr error
	e.rec.Do(parent, "fuzz.RunCaseStreamed", func(int) {
		res.setLayer("fuzz.run_us_per_case", 1e6*fastestPerOp(farmStageReps, n, func() {
			for i, c := range cs {
				r, _, err := fuzz.RunCaseStreamed(c, false)
				if err != nil {
					stageErr = err
				} else if r.Class != want[i].Result.Class {
					res.incorrect("case %d classifies %s alone, %s in the campaign", i, r.Class, want[i].Result.Class)
				}
			}
		}))
	})
	if stageErr != nil {
		return stageErr
	}

	e.rec.Do(parent, "Case.Encode/DecodeCase", func(int) {
		res.setLayer("fuzz.case_codec_us", 1e6*fastestPerOp(farmStageReps, n, func() {
			for _, c := range cs {
				data, err := c.Encode()
				if err == nil {
					_, err = fuzz.DecodeCase(data)
				}
				if err != nil {
					stageErr = err
				}
			}
		}))
	})
	if stageErr != nil {
		return stageErr
	}

	shards := spec.Shards()
	k := min(len(shards), max(1, n/farmShardSize))
	var sample fabric.ShardResult
	e.rec.Do(parent, "fabric.ExecuteShard", func(int) {
		res.setLayer("fabric.execute_shard_ms", 1e3*fastestPerOp(3, k, func() {
			for _, sh := range shards[:k] {
				r, err := fabric.ExecuteShard(spec, sh, nil)
				if err != nil {
					stageErr = err
				}
				sample = r
			}
		}))
	})
	if stageErr != nil {
		return stageErr
	}

	// Lease and Complete called directly on a coordinator that journals
	// to a checkpoint file, with the results a worker would deliver.
	var leases, completes []float64
	e.rec.Do(parent, "Coordinator.Lease/Complete", func(int) {
		ckpt := filepath.Join(e.tmp, "farm-direct.ckpt")
		defer os.Remove(ckpt)
		coord, err := fabric.NewCoordinator(spec, fabric.CoordinatorOptions{CheckpointPath: ckpt})
		if err != nil {
			stageErr = err
			return
		}
		defer coord.Close()
		for range shards {
			t := time.Now()
			lease := coord.Lease(fabric.LeaseRequest{Worker: "direct"})
			leases = append(leases, time.Since(t).Seconds())
			if lease.Shard == nil {
				stageErr = fmt.Errorf("direct lease returned no shard")
				return
			}
			sh := *lease.Shard
			req := fabric.CompleteRequest{Worker: "direct", Result: fabric.ShardResult{Shard: sh, Records: want[sh.From:sh.To]}}
			t = time.Now()
			_, err := coord.Complete(req)
			completes = append(completes, time.Since(t).Seconds())
			if err != nil {
				stageErr = err
				return
			}
		}
	})
	if stageErr != nil {
		return stageErr
	}
	res.setLayer("fabric.lease_us", summarize(leases).RuleTime()*1e6)
	res.setLayer("fabric.complete_us", summarize(completes).RuleTime()*1e6)

	var snaps []*telemetry.Snapshot
	for _, c := range cs[:min(n, 8)] {
		if _, snap, err := fuzz.RunCaseStreamed(c, true); err == nil && snap != nil {
			snaps = append(snaps, snap)
		}
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no telemetry snapshot from instrumented cases")
	}
	e.rec.Do(parent, "layer-drivers", func(int) { stageErr = farmLayerDrivers(e, res, sample, snaps) })
	return stageErr
}
