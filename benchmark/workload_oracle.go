package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"

	"dvmc"
	"dvmc/internal/oracle"
	"dvmc/internal/oracle/stream"
	"dvmc/internal/trace"
)

// oracle-replay: set-up records one directory/TSO/OLTP trace; the timed
// chunks are whole passes of the streaming oracle over its bytes.

const (
	oraclePasses      = 100
	oracleTraceCycles = 800_000 // at scale 1: ~0.25 M events, 50 to 100 ms per pass
	oracleSetups      = 3
	oracleStagePasses = 20 // passes per stage in the traced decomposition
)

// recordTrace runs the recording simulation and returns the trace bytes
// and the recorder's event count.
func recordTrace(seed uint64, cycles uint64) ([]byte, uint64, error) {
	cfg := dvmc.ScaledConfig().WithSeed(simSeed(seed)).WithTrace(dvmc.TraceOn())
	sys, err := dvmc.NewSystem(cfg, dvmc.OLTP())
	if err != nil {
		return nil, 0, err
	}
	sys.RunCycles(cycles)
	sys.DrainCheckers()
	if v := sys.Violations(); len(v) != 0 {
		return nil, 0, fmt.Errorf("recording run raised a violation: %v", v[0])
	}
	data, err := sys.TraceBytes()
	if err != nil {
		return nil, 0, err
	}
	return data, sys.TraceStats().Events, nil
}

func runOracle(e *env, def WorkloadDef) (*WorkloadResult, error) {
	res := newWorkloadResult(def)
	cycles := uint64(math.Max(1000, math.Round(oracleTraceCycles*e.scale)))

	var data []byte
	var events uint64
	var want *oracle.Report
	var err error
	e.rec.Do(e.root, "setup", func(int) {
		for i := 0; i < oracleSetups && err == nil; i++ {
			t := time.Now()
			data, events, err = recordTrace(e.seed, cycles)
			res.SetupSamples = append(res.SetupSamples, time.Since(t).Seconds())
		}
		if err != nil {
			return
		}
		// The reference verdict comes from the batch oracle, which shares
		// no state with the engine under test.
		if want, err = oracle.CheckBytes(data); err != nil {
			err = fmt.Errorf("batch oracle: %w", err)
		}
	})
	if err != nil {
		return nil, err
	}
	if want.Stats.Events != events {
		res.incorrect("batch oracle saw %d events, recorder emitted %d", want.Stats.Events, events)
	}

	// A pass fails unless its report is clean and equal to the batch
	// oracle's (and so to every other pass's). Reports are judged after
	// timing.
	opts := stream.Options{Shards: 1}
	type verdict struct {
		rep *oracle.Report
		err error
	}
	passFn := func(out []verdict, rec *Recorder, parent int) func(int) {
		return func(i int) {
			id := rec.Begin(parent, 0, "stream.CheckBytes")
			out[i].rep, out[i].err = stream.CheckBytes(data, opts)
			rec.End(id)
		}
	}
	failedOf := func(vs []verdict) (failed int) {
		for _, v := range vs {
			if v.err != nil || !v.rep.Clean() || !reflect.DeepEqual(v.rep, want) {
				failed++
			}
		}
		return failed
	}
	plain, traced := make([]verdict, oraclePasses), make([]verdict, oraclePasses)
	e.timedPass(res, oraclePasses, float64(events), passFn(plain, nil, -1),
		func(parent int) func(int) { return passFn(traced, e.rec, parent) })
	res.Attempted = oraclePasses
	failed := failedOf(plain)
	if failed > 0 {
		res.fail(failed, "%d passes were not clean or differed from the batch oracle's report", failed)
	}
	if !e.traced {
		return res, nil
	}
	if tfailed := failedOf(traced); tfailed != failed {
		res.incorrect("%d traced passes failed, %d untraced", tfailed, failed)
	}
	e.rec.Do(e.root, "stages", func(id int) { err = oracleStages(e, res, data, want, id) })
	return res, err
}

// oracleStages splits a pass into the public calls it is made of.
func oracleStages(e *env, res *WorkloadResult, data []byte, want *oracle.Report, parent int) error {
	n := float64(want.Stats.Events)
	res.setLayer("trace.bytes_per_event", float64(len(data))/n)
	res.setLayer("oracle.pair_checks_per_event", float64(want.Stats.PairChecks)/n)

	var meta trace.Meta
	var events []trace.Event
	var err error
	decode := timeChunks(oracleStagePasses, func(int) {
		id := e.rec.Begin(parent, 0, "trace.Decode")
		meta, events, err = trace.Decode(data)
		e.rec.End(id)
	})
	if err != nil {
		return err
	}
	res.setLayer("trace.decode_ns_per_event", summarize(decode).RuleTime()/n*1e9)

	check := func(shards int) (float64, int64) {
		var frontier int64
		samples := timeChunks(oracleStagePasses, func(int) {
			id := e.rec.Begin(parent, 0, fmt.Sprintf("stream.New/Feed/Finish(shards=%d)", shards))
			c := stream.New(meta, stream.Options{Shards: shards})
			for i := range events {
				c.Feed(events[i])
			}
			rep := c.Finish()
			e.rec.End(id)
			frontier = c.MaxFrontier()
			if !reflect.DeepEqual(rep, want) {
				res.incorrect("stream report at shards=%d differs from the batch oracle's", shards)
			}
		})
		return summarize(samples).RuleTime() / n * 1e9, frontier
	}
	ns1, frontier := check(1)
	res.setLayer("stream.check_ns_per_event", ns1)
	res.setLayer("stream.max_frontier", float64(frontier))
	ns2, _ := check(2)
	res.setLayer("stream.shards2_ns_per_event", ns2)

	batch := timeChunks(max(2, oracleStagePasses/4), func(int) {
		id := e.rec.Begin(parent, 0, "oracle.Check")
		rep := oracle.Check(meta, events)
		e.rec.End(id)
		if !reflect.DeepEqual(rep, want) {
			res.incorrect("batch oracle is not repeatable")
		}
	})
	res.setLayer("oracle.batch_ns_per_event", summarize(batch).RuleTime()/n*1e9)

	var rss float64
	e.rec.Do(parent, "child:stream.CheckReader", func(int) { rss, err = childPeakRSS(e, data) })
	if err != nil {
		return err
	}
	res.setLayer("stream.peak_rss_mb", rss)
	return nil
}

// childPeakRSS checks the trace from a file in a child process and
// returns the child's peak resident set in MB: the streaming oracle's
// bounded-memory claim, measured where the parent's heap cannot hide it.
func childPeakRSS(e *env, data []byte) (float64, error) {
	path := filepath.Join(e.tmp, "replay.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "rss-child", path)
	out, err := cmd.Output() // Output waits for the child to exit
	if err != nil {
		return 0, fmt.Errorf("rss child: %w", err)
	}
	if strings.TrimSpace(string(out)) != "clean" {
		return 0, fmt.Errorf("rss child reported %q", out)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("rss child: no rusage")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KB
}

// rssChild is the child side of childPeakRSS.
func rssChild(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: rss-child TRACE")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	rep, err := stream.CheckReader(f, stream.Options{Shards: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !rep.Clean() {
		fmt.Println("violations", len(rep.Violations))
		return 0
	}
	fmt.Println("clean")
	return 0
}
