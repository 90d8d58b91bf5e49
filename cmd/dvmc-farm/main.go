// Command dvmc-farm runs a distributed campaign: a coordinator shards
// a fuzzing campaign or the Section 6.1 injection matrix into leases,
// workers (local or on other machines) execute them over HTTP+JSON, and
// the coordinator merges the results into artifacts byte-identical to a
// serial single-process run — at any worker count, join/leave order, or
// crash/retry schedule.
//
// Subcommands:
//
//	serve   start a coordinator for a new job and wait for completion
//	resume  restart a coordinator from its checkpoint file
//	work    run a worker against a coordinator
//	status  print a coordinator's progress
//
// The coordinator journals accepted results to an append-only
// checkpoint (-checkpoint); if it crashes, `resume` picks up without
// re-running completed shards. Workers may come and go freely: leases
// expire and are stolen, and re-executed shards reproduce identical
// bytes, so the merged output never depends on the schedule.
//
// -metrics-out has one meaning: the campaign's merged telemetry snapshot
// (a fuzz job started with -metrics). No case is re-run to observe it;
// to see one case's spans or telemetry, replay its corpus file with
// dvmc-fuzz replay -spans-out / -metrics-out.
//
// Exit codes: 0 clean (and for -h), 1 usage or I/O error, 2 campaign
// failure found (fuzz: escape, false alarm, or crash; experiment: the
// Section 6.1 verdict, an undetected fault or a detection with no live
// pre-error checkpoint) or, on resume, a checkpoint that does not decode —
// torn mid-file, a CRC mismatch, a DVMC1 journal from before shard
// results became verdicts, an experiment journal whose results carry
// per-row "rows", a fuzz journal whose spec names breeding "generations"
// — or that holds a result the job would refuse.
//
// Example (two terminals):
//
//	dvmc-farm serve -seed 1 -n 500 -corpus corpus/ -checkpoint farm.ckpt
//	dvmc-farm work -coordinator http://127.0.0.1:8700
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"dvmc"
	"dvmc/internal/fabric"
	"dvmc/internal/frame"
	"dvmc/internal/fuzz"
	"dvmc/internal/strictjson"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main's process edges, passed in so tests can drive it.
type cli struct {
	stdout, stderr io.Writer
}

// run is main with its process edges passed in; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	if len(args) < 1 {
		c.usage()
		return 1
	}
	switch args[0] {
	case "serve":
		return c.serve(args[1:], false)
	case "resume":
		return c.serve(args[1:], true)
	case "work":
		return c.work(args[1:])
	case "status":
		return c.status(args[1:])
	case "-h", "-help", "--help", "help":
		c.usage()
		return 0
	default:
		return c.failf("unknown subcommand %q (want serve, resume, work, or status)", args[0])
	}
}

func (c *cli) usage() {
	fmt.Fprintf(c.stderr, `usage:
  dvmc-farm serve  [flags]    coordinate a new sharded campaign
  dvmc-farm resume [flags]    restart a coordinator from -checkpoint
  dvmc-farm work   [flags]    execute leases for a coordinator
  dvmc-farm status [flags]    print a coordinator's progress

The merged results are byte-identical to a serial run of the same
campaign, regardless of worker count, ordering, or crashes.
'<sub> -h' lists each subcommand's flags.

exit codes: 0 clean, 1 usage or I/O error, 2 campaign failure found
(or, on resume, a checkpoint that does not decode)
`)
}

// failf reports a usage or I/O error: exit 1 (2 is reserved for found
// failures and undecodable checkpoints).
func (c *cli) failf(format string, args ...any) int {
	fmt.Fprintf(c.stderr, "dvmc-farm: "+format+"\n", args...)
	return 1
}

// flags parses a subcommand's flags; ok false means return code now.
func (c *cli) flags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	fs.SetOutput(c.stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 1, false
	}
	return 0, true
}

// serve runs a coordinator to completion: bind, hand out leases, merge
// results, write artifacts. resume=true loads the job from -checkpoint
// instead of the job flags.
func (c *cli) serve(args []string, resume bool) int {
	name := "serve"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8700", "coordinator listen address")
		checkpoint = fs.String("checkpoint", "", "append-only journal of accepted results (required for resume)")
		ttl        = fs.Uint64("ttl", 60, "lease TTL in seconds before a shard is stealable")
		shard      = fs.Int("shard", fabric.DefaultShardSize, "cases per lease")
		jsonOut    = fs.Bool("json", false, "print the fuzz summary as JSON")
		recordsOut = fs.String("records-out", "", "write the full fuzz record table (JSON) to this file ('-' for stdout)")
		metricsOut = fs.String("metrics-out", "", "write the merged telemetry snapshot to this file ('-' for stdout; needs a fuzz job with -metrics)")

		// Job flags (serve only; resume reads the spec from the journal).
		kind      = fs.String("job", "fuzz", "job kind: fuzz | experiment")
		seed      = fs.Uint64("seed", 1, "campaign master seed")
		n         = fs.Int("n", 200, "fuzz: number of runs")
		faultFrac = fs.Float64("fault-frac", 0.5, "fuzz: fraction of runs that inject a fault")
		budget    = fs.Uint64("budget", fuzz.DefaultBudget, "per-run cycle budget")
		corpus    = fs.String("corpus", "", "fuzz: directory for minimized failure reproducers")
		minimize  = fs.Bool("minimize", true, "fuzz: delta-debug failures before writing them")
		minBudget = fs.Int("minimize-budget", fuzz.DefaultMinimizeBudget, "fuzz: max re-runs per minimized failure")
		metrics   = fs.Bool("metrics", false, "fuzz: instrument every case and merge telemetry farm-wide")
		kinds     = fs.String("kinds", "", "fuzz: comma-separated fault kinds to inject (default all)")
		faults    = fs.Int("faults", 100, "experiment: injections per protocol x model row")
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 0 {
		return c.failf("%s: unexpected arguments %v", name, fs.Args())
	}
	summaryJSON := dvmc.Artifact{Flag: "-json"}
	if *jsonOut {
		summaryJSON.Path = "-"
	}
	report, err := dvmc.ReportTo(c.stdout, c.stderr, summaryJSON,
		dvmc.Artifact{Flag: "-records-out", Path: *recordsOut}, dvmc.Artifact{Flag: "-metrics-out", Path: *metricsOut})
	if err != nil {
		return c.failf("%s: %v", name, err)
	}

	// checkOutputs refuses, before anything is bound or run, a merged
	// snapshot the job does not collect.
	checkOutputs := func(spec fabric.JobSpec) error {
		if *metricsOut != "" && (spec.Kind != fabric.JobFuzz || !spec.Fuzz.Metrics) {
			return fmt.Errorf("-metrics-out needs a fuzz job started with -metrics")
		}
		return nil
	}
	opts := fabric.CoordinatorOptions{CheckpointPath: *checkpoint, TTLSeconds: *ttl}
	var coord *fabric.Coordinator
	if resume {
		if *checkpoint == "" {
			return c.failf("resume: -checkpoint is required")
		}
		coord, err = fabric.ResumeCoordinator(*checkpoint, opts)
	} else {
		spec := fabric.JobSpec{Kind: fabric.JobKind(*kind), ShardSize: *shard}
		switch spec.Kind {
		case fabric.JobFuzz:
			spec.Fuzz = &fuzz.CampaignConfig{
				Seed: *seed, Runs: *n, FaultFrac: *faultFrac, Budget: *budget,
				CorpusDir: *corpus, Minimize: *minimize, MinimizeBudget: *minBudget,
				Metrics: *metrics, Kinds: fuzz.ParseKinds(*kinds),
			}
		case fabric.JobExperiment:
			spec.Experiment = &fabric.ExperimentSpec{Faults: *faults, Budget: *budget, Seed: *seed}
		default:
			return c.failf("serve: unknown -job %q", *kind)
		}
		// Before NewCoordinator creates the checkpoint.
		if err := checkOutputs(spec); err != nil {
			return c.failf("%s: %v", name, err)
		}
		coord, err = fabric.NewCoordinator(spec, opts)
	}
	var pe *frame.PosError
	if errors.As(err, &pe) {
		// A checkpoint that does not decode is a failed artifact, not a
		// usage error.
		fmt.Fprintf(c.stderr, "dvmc-farm: %s: %v\n", name, err)
		return 2
	}
	if err != nil {
		return c.failf("%s: %v", name, err)
	}
	defer coord.Close()
	if err := checkOutputs(coord.Spec()); err != nil { // on resume, the journaled job
		return c.failf("%s: %v", name, err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return c.failf("%s: %v", name, err)
	}
	srv := &http.Server{Handler: coord}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	st := coord.Status()
	fmt.Fprintf(c.stderr, "dvmc-farm: coordinating %s job: %d cases in %d shards on %s (%d already done)\n",
		st.Kind, st.Cases, st.Total, ln.Addr(), st.Done)

	select {
	case <-coord.Done():
	case err := <-served:
		return c.failf("%s: %v", name, err)
	}
	out, err := coord.Finalize()
	if err != nil {
		return c.failf("%s: %v", name, err)
	}
	failed, err := c.writeOutputs(out, report, *jsonOut, *recordsOut, *metricsOut)
	if err != nil {
		return c.failf("%s: %v", name, err)
	}
	// Stay up until every worker has been answered Done (or has gone
	// silent), so none meets a vanished coordinator.
	coord.Drain()
	srv.Shutdown(context.Background())
	if failed {
		return 2
	}
	return 0
}

// writeOutputs renders a finished job's artifacts exactly as the serial
// CLIs do (dvmc-fuzz's summary encoding, the experiments' table text),
// so farm output files can be compared byte-for-byte against serial
// baselines. The text summary or table goes to report; -json's summary
// and an artifact on "-" are all of stdout.
func (c *cli) writeOutputs(out *fabric.Output, report io.Writer, jsonOut bool, recordsOut, metricsOut string) (failed bool, err error) {
	if out.Records != nil {
		if jsonOut {
			if err := encodeIndented(c.stdout, out.Summary); err != nil {
				return false, err
			}
		} else {
			fmt.Fprint(report, out.Summary)
		}
		if recordsOut != "" {
			records := func(w io.Writer) error { return encodeIndented(w, out.Records) }
			if err := dvmc.WriteArtifact(recordsOut, c.stdout, records); err != nil {
				return false, err
			}
		}
		if metricsOut != "" && out.Snapshot != nil {
			if err := dvmc.WriteArtifact(metricsOut, c.stdout, out.Snapshot.EncodeJSON); err != nil {
				return false, err
			}
		}
		if out.Summary.Failed() {
			fmt.Fprintf(c.stderr, "dvmc-farm: %d failing runs\n", out.Summary.Failures)
			return true, nil
		}
		return false, nil
	}

	// Experiment job: print the table; fail by its verdict.
	fmt.Fprint(report, out.Table)
	if err := out.Table.Verdict(); err != nil {
		fmt.Fprintf(c.stderr, "dvmc-farm: Section 6.1: %v\n", err)
		return true, nil
	}
	return false, nil
}

// encodeIndented writes v as the indented JSON the serial CLIs print.
func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func (c *cli) work(args []string) int {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "http://127.0.0.1:8700", "coordinator base URL")
		workerName  = fs.String("name", "", "worker name (default host-pid)")
		maxShards   = fs.Int("max-shards", 0, "stop after completing this many shards (0 = run until the job finishes)")
		quiet       = fs.Bool("q", false, "suppress per-shard progress lines")
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 0 {
		return c.failf("work: unexpected arguments %v", fs.Args())
	}
	name := *workerName
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(c.stderr, "dvmc-farm[%s]: "+format+"\n", append([]any{name}, args...)...)
	}
	if *quiet {
		logf = nil
	}
	n, err := fabric.RunWorker(context.Background(), fabric.WorkerOptions{
		Name: name, Coordinator: *coordinator, MaxShards: *maxShards, Logf: logf,
	})
	if err != nil {
		return c.failf("work: %v (after %d shards)", err, n)
	}
	return 0
}

func (c *cli) status(args []string) int {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "http://127.0.0.1:8700", "coordinator base URL")
		jsonOut     = fs.Bool("json", false, "print the raw status JSON")
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 0 {
		return c.failf("status: unexpected arguments %v", fs.Args())
	}
	resp, err := http.Get(*coordinator + fabric.PathStatus)
	if err != nil {
		return c.failf("status: %v", err)
	}
	defer resp.Body.Close()
	var st fabric.StatusResponse
	if err := strictjson.Decode(io.LimitReader(resp.Body, fabric.MaxControlBody), &st); err != nil {
		return c.failf("status: %v", err)
	}
	if *jsonOut {
		if err := encodeIndented(c.stdout, st); err != nil {
			return c.failf("status: %v", err)
		}
		return 0
	}
	fmt.Fprintf(c.stdout, "%s job: %d cases, shards %d done / %d active / %d pending of %d",
		st.Kind, st.Cases, st.Done, st.Active, st.Pending, st.Total)
	if st.Finished {
		fmt.Fprint(c.stdout, "  [finished]")
	}
	fmt.Fprintln(c.stdout)
	for _, w := range st.Workers {
		shard := "idle"
		if w.ActiveShard >= 0 {
			shard = fmt.Sprintf("shard %d", w.ActiveShard)
		}
		fmt.Fprintf(c.stdout, "  worker %-20s %3d shards (%.2f/s), %-16s seen %ds ago, renewed %ds ago\n",
			w.Name, w.Shards, w.ShardsPerSec, shard+",", w.LastSeenSeconds, w.LastRenewSeconds)
	}
	return 0
}
