// Command dvmc-fuzz runs randomized litmus-program fuzzing campaigns
// against the DVMC simulator and cross-checks three verdicts per run:
// the online checkers, the offline trace oracle, and the injected-fault
// ground truth. Any disagreement — an escape the online checkers missed
// or a false alarm on a clean run — is delta-debugged to a 1-minimal
// reproducer and written to a corpus directory.
//
// Subcommands:
//
//	gen     generate one case (program + config) as JSON
//	run     run a fuzzing campaign, print the classification table
//	shrink  delta-debug one failing case to a minimal reproducer
//	replay  re-run corpus reproducers and check their classifications
//
// A campaign's run i is derived from -seed and i alone, so campaigns are
// deterministic: the same flags produce byte-identical classification
// tables and corpus artifacts regardless of -workers. A campaign runs
// unobserved; replay is the one place a case runs with observers, and
// its -spans-out / -metrics-out artifacts come from the execution it
// checks, not from a second run.
//
// Exit codes (all subcommands): 0 clean, 1 usage or I/O error, 2 a
// failure was found (escape, false alarm, crash, or replay mismatch —
// which includes a case file that does not decode).
//
// Examples:
//
//	dvmc-fuzz run -seed 1 -n 500 -fault-frac 0.5 -workers 8 -corpus corpus/
//	dvmc-fuzz gen -seed 7 -threads 4 -ops 32 > case.json
//	dvmc-fuzz shrink case.json > min.json
//	dvmc-fuzz replay internal/fuzz/testdata/corpus
//	dvmc-fuzz replay -spans-out case.spans -metrics-out case.metrics.json min.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dvmc"
	"dvmc/internal/fuzz"
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
	case "gen":
		return c.gen(args[1:])
	case "run":
		return c.campaign(args[1:])
	case "shrink":
		return c.shrink(args[1:])
	case "replay":
		return c.replay(args[1:])
	case "-h", "-help", "--help", "help":
		c.usage()
		return 0
	default:
		return c.failf("unknown subcommand %q (want gen, run, shrink, or replay)", args[0])
	}
}

func (c *cli) usage() {
	fmt.Fprintf(c.stderr, `usage:
  dvmc-fuzz gen    [flags]                 generate one case as JSON on stdout
  dvmc-fuzz run    [flags]                 run a fuzzing campaign
  dvmc-fuzz shrink [flags] <case.json>     minimize a failing case to stdout
  dvmc-fuzz replay [flags] <dir | case.json>...
                                          re-run corpus reproducers
                                          (-spans-out / -metrics-out: one
                                          case file, observed as it runs)

Campaigns are deterministic: the same flags give byte-identical results
regardless of -workers. '<sub> -h' lists each subcommand's flags. A
replay artifact named '-' is all of stdout; the report goes to stderr.

exit codes: 0 clean, 1 usage or I/O error, 2 failure found
(escape, false alarm, crash, or replay mismatch, an undecodable
case file included).
`)
}

// failf reports a usage or I/O error: exit 1 (2 is reserved for found
// failures).
func (c *cli) failf(format string, args ...any) int {
	fmt.Fprintf(c.stderr, "dvmc-fuzz: "+format+"\n", args...)
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

func (c *cli) gen(args []string) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 1, "generator seed")
		threads  = fs.Int("threads", 4, "thread count")
		ops      = fs.Int("ops", 32, "operations per thread")
		blocks   = fs.Int("blocks", 4, "shared address pool size in blocks")
		words    = fs.Int("words", 4, "distinct words exposed per block (false sharing)")
		readFrac = fs.Float64("read-frac", 0.45, "fraction of data ops that are loads")
		rmwFrac  = fs.Float64("rmw-frac", 0.10, "fraction of ops that are atomic RMWs")
		mbFrac   = fs.Float64("membar-frac", 0.10, "fraction of ops that are membars")
		b32Frac  = fs.Float64("bits32-frac", 0.10, "fraction of data ops marked 32-bit")
		model    = fs.String("model", "TSO", "consistency model: SC|TSO|PSO|RMO")
		proto    = fs.String("protocol", "directory", "coherence protocol: directory|snooping")
		simSeed  = fs.Uint64("sim-seed", 1, "simulator seed")
		budget   = fs.Uint64("budget", fuzz.DefaultBudget, "cycle budget")
		faultStr = fs.String("fault", "", "fault to inject as kind:node:cycle (e.g. msg-drop:1:400); known kinds: "+strings.Join(fuzz.FaultKindNames(), ", "))
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 0 {
		return c.failf("gen: unexpected arguments %v", fs.Args())
	}
	gp := fuzz.DefaultGenParams(*seed)
	gp.Threads = *threads
	gp.OpsPerThread = *ops
	gp.Blocks = *blocks
	gp.WordsPerBlock = *words
	gp.ReadFrac = *readFrac
	gp.RMWFrac = *rmwFrac
	gp.MembarFrac = *mbFrac
	gp.Bits32Frac = *b32Frac
	prog, err := gp.Generate()
	if err != nil {
		return c.failf("gen: %v", err)
	}
	cs := &fuzz.Case{
		Name:     fmt.Sprintf("gen-seed%d", *seed),
		Model:    *model,
		Protocol: *proto,
		Seed:     *simSeed,
		Budget:   *budget,
		DVMC:     true,
		Program:  *prog,
	}
	if *faultStr != "" {
		f, err := parseFault(*faultStr)
		if err != nil {
			return c.failf("gen: %v", err)
		}
		cs.Fault = f
	}
	if err := cs.Validate(); err != nil {
		return c.failf("gen: %v", err)
	}
	data, err := cs.Encode()
	if err != nil {
		return c.failf("gen: %v", err)
	}
	c.stdout.Write(data)
	return 0
}

func parseFault(s string) (*fuzz.FaultSpec, error) {
	var f fuzz.FaultSpec
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return nil, fmt.Errorf("fault %q: want kind:node:cycle[:window[:magnitude]]", s)
	}
	f.Kind = parts[0]
	if _, err := fmt.Sscanf(parts[1], "%d", &f.Node); err != nil {
		return nil, fmt.Errorf("fault node %q: %v", parts[1], err)
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &f.Cycle); err != nil {
		return nil, fmt.Errorf("fault cycle %q: %v", parts[2], err)
	}
	if len(parts) > 3 {
		if _, err := fmt.Sscanf(parts[3], "%d", &f.Window); err != nil {
			return nil, fmt.Errorf("fault window %q: %v", parts[3], err)
		}
	}
	if len(parts) > 4 {
		if _, err := fmt.Sscanf(parts[4], "%d", &f.Magnitude); err != nil {
			return nil, fmt.Errorf("fault magnitude %q: %v", parts[4], err)
		}
	}
	if _, err := f.Injection(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (c *cli) campaign(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		seed      = fs.Uint64("seed", 1, "campaign master seed")
		n         = fs.Int("n", 200, "number of runs")
		workers   = fs.Int("workers", 0, "worker pool size (0 = min(GOMAXPROCS, runs), 1 = serial)")
		faultFrac = fs.Float64("fault-frac", 0.5, "fraction of runs that inject a fault")
		budget    = fs.Uint64("budget", fuzz.DefaultBudget, "per-run cycle budget")
		corpus    = fs.String("corpus", "", "directory for minimized failure reproducers")
		minimize  = fs.Bool("minimize", true, "delta-debug failures before writing them")
		minBudget = fs.Int("minimize-budget", fuzz.DefaultMinimizeBudget, "max re-runs per minimized failure")
		jsonOut   = fs.Bool("json", false, "print the summary as JSON")
		verbose   = fs.Bool("v", false, "print one line per non-clean run")
		kindsStr  = fs.String("kinds", "", "comma-separated fault-kind pool (empty = every kind); known: "+strings.Join(fuzz.FaultKindNames(), ", "))
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 0 {
		return c.failf("run: unexpected arguments %v", fs.Args())
	}
	cfg := fuzz.CampaignConfig{
		Seed: *seed, Runs: *n, Workers: *workers, FaultFrac: *faultFrac,
		Budget: *budget, CorpusDir: *corpus,
		Minimize: *minimize, MinimizeBudget: *minBudget,
		Kinds: fuzz.ParseKinds(*kindsStr),
	}
	records, summary, _, err := fuzz.Run(cfg)
	if err != nil {
		return c.failf("run: %v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			return c.failf("run: %v", err)
		}
	} else {
		fmt.Fprint(c.stdout, summary)
	}
	if *verbose {
		for _, r := range fuzz.SortRecordsByClass(records) {
			if r.Result.Class == dvmc.ClassAgreeClean {
				continue
			}
			fmt.Fprintf(c.stdout, "  run %d: %s %s/%s", r.Index, r.Result.Class, r.Case.Model, r.Case.Protocol)
			if r.Case.Fault != nil {
				fmt.Fprintf(c.stdout, " fault=%s@%d", r.Case.Fault.Kind, r.Case.Fault.Cycle)
			}
			if r.Result.Detail != "" {
				fmt.Fprintf(c.stdout, " (%s)", r.Result.Detail)
			}
			if r.CorpusFile != "" {
				fmt.Fprintf(c.stdout, " -> %s", r.CorpusFile)
			}
			fmt.Fprintln(c.stdout)
		}
	}
	if summary.Failed() {
		fmt.Fprintf(c.stderr, "dvmc-fuzz: %d failing runs\n", summary.Failures)
		return 2
	}
	return 0
}

func (c *cli) shrink(args []string) int {
	fs := flag.NewFlagSet("shrink", flag.ContinueOnError)
	var (
		budget = fs.Int("budget", fuzz.DefaultMinimizeBudget, "max re-runs")
		out    = fs.String("o", "-", "output path ('-' for stdout)")
	)
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		return c.failf("shrink: need exactly one case file")
	}
	cs, err := fuzz.LoadCase(fs.Arg(0))
	if err != nil {
		return c.failf("shrink: %v", err)
	}
	min, err := fuzz.Minimize(cs, *budget)
	if err != nil {
		return c.failf("shrink: %v", err)
	}
	data, err := min.Encode()
	if err != nil {
		return c.failf("shrink: %v", err)
	}
	write := func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
	if err := dvmc.WriteArtifact(*out, c.stdout, write); err != nil {
		return c.failf("shrink: %v", err)
	}
	fmt.Fprintf(c.stderr, "dvmc-fuzz: shrunk to %d threads, %d ops (%s)\n",
		min.Program.NumThreads(), min.Program.NumOps(), min.Expect)
	return 0
}

// replay re-runs reproducers: every case of a directory argument, the
// one case of a file argument, both through fuzz.ReplayFile. A case that
// does not load is a mismatch like any other — the artifact failed.
// -spans-out and -metrics-out observe the one execution of a single case
// file, the same run whose classification and trace replay checks.
func (c *cli) replay(args []string) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var outs dvmc.Outputs
	fs.StringVar(&outs.Spans, "spans-out", "", "record the case's causal spans and write the binary dump to this file ('-' for stdout; render with dvmc-stat timeline)")
	fs.StringVar(&outs.Metrics, "metrics-out", "", "record the case's telemetry and write the JSON snapshot to this file ('-' for stdout; render with dvmc-stat dump)")
	if code, ok := c.flags(fs, args); !ok {
		return code
	}
	args = fs.Args()
	if len(args) == 0 {
		return c.failf("replay: need at least one corpus directory or case file")
	}
	report, err := outs.Report(c.stdout, c.stderr)
	if err != nil {
		return c.failf("replay: %v", err)
	}
	const oneCase = "replay: -spans-out and -metrics-out need exactly one case file"
	var observe func(dvmc.Config) dvmc.Config
	if outs != (dvmc.Outputs{}) {
		if len(args) != 1 {
			return c.failf(oneCase)
		}
		observe = outs.Observe
	}
	bad := 0
	total := 0
	var sys *dvmc.System
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return c.failf("replay: %v", err)
		}
		var results []fuzz.ReplayResult
		if !info.IsDir() {
			var r fuzz.ReplayResult
			r, sys = fuzz.ReplayFile(arg, observe)
			results = append(results, r)
		} else if observe != nil {
			return c.failf(oneCase)
		} else if results, err = fuzz.ReplayDir(arg); err != nil {
			return c.failf("replay: %v", err)
		}
		for _, r := range results {
			total++
			status := "ok"
			if !r.OK {
				status = "MISMATCH"
				bad++
			}
			fmt.Fprintf(report, "%-8s %s: expect %s, got %s\n", status, r.Path, orDash(string(r.Expect)), orDash(string(r.Got)))
			if r.Result.Panic != "" {
				fmt.Fprintf(report, "         %s\n", r.Result.Panic)
			}
			if r.TraceDiff != "" {
				fmt.Fprintf(report, "         %s\n", r.TraceDiff)
			}
		}
	}
	fmt.Fprintf(report, "replayed %d cases, %d mismatches\n", total, bad)
	if observe != nil {
		switch {
		case sys != nil:
			if err := outs.Write(sys, c.stdout, report); err != nil {
				return c.failf("replay: %v", err)
			}
		case bad == 0:
			return c.failf("replay: %s crashed: no run to observe", args[0])
		}
	}
	if bad > 0 {
		return 2
	}
	return 0
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
