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
// Campaigns are deterministic: the same -seed produces byte-identical
// classification tables and corpus artifacts regardless of -workers.
//
// Exit codes (all subcommands): 0 clean, 1 usage or I/O error, 2 a
// failure was found (escape, false alarm, crash, or replay mismatch).
//
// Examples:
//
//	dvmc-fuzz run -seed 1 -n 500 -fault-frac 0.5 -workers 8 -corpus corpus/
//	dvmc-fuzz gen -seed 7 -threads 4 -ops 32 > case.json
//	dvmc-fuzz shrink case.json > min.json
//	dvmc-fuzz replay internal/fuzz/testdata/corpus
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dvmc"
	"dvmc/internal/fuzz"
	"dvmc/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "run":
		run(os.Args[2:])
	case "shrink":
		shrink(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fatalf("unknown subcommand %q (want gen, run, shrink, or replay)", os.Args[1])
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  dvmc-fuzz gen    [flags]                 generate one case as JSON on stdout
  dvmc-fuzz run    [flags]                 run a fuzzing campaign
  dvmc-fuzz shrink [flags] <case.json>     minimize a failing case to stdout
  dvmc-fuzz replay <dir | case.json>...    re-run corpus reproducers

Campaigns are deterministic: the same -seed gives byte-identical results
regardless of -workers. '<sub> -h' lists each subcommand's flags.

exit codes: 0 clean, 1 usage or I/O error, 2 failure found
(escape, false alarm, crash, or replay mismatch).
`)
	os.Exit(1)
}

// newFlagSet builds a flag set that exits 1 (usage), not 2, on parse
// errors — exit 2 is reserved for found failures.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

func parseFlags(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(1)
	}
}

func gen(args []string) {
	fs := newFlagSet("gen")
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
	parseFlags(fs, args)
	if fs.NArg() != 0 {
		fatalf("gen: unexpected arguments %v", fs.Args())
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
		fatalf("gen: %v", err)
	}
	c := &fuzz.Case{
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
			fatalf("gen: %v", err)
		}
		c.Fault = f
	}
	if err := c.Validate(); err != nil {
		fatalf("gen: %v", err)
	}
	data, err := c.Encode()
	if err != nil {
		fatalf("gen: %v", err)
	}
	os.Stdout.Write(data)
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

// parseKinds splits a comma-separated fault-kind pool.
func parseKinds(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			out = append(out, k)
		}
	}
	return out
}

func run(args []string) {
	fs := newFlagSet("run")
	var (
		seed       = fs.Uint64("seed", 1, "campaign master seed")
		n          = fs.Int("n", 200, "number of runs")
		workers    = fs.Int("workers", 0, "worker pool size (0 = min(GOMAXPROCS, runs), 1 = serial)")
		faultFrac  = fs.Float64("fault-frac", 0.5, "fraction of runs that inject a fault")
		budget     = fs.Uint64("budget", fuzz.DefaultBudget, "per-run cycle budget")
		corpus     = fs.String("corpus", "", "directory for minimized failure reproducers")
		minimize   = fs.Bool("minimize", true, "delta-debug failures before writing them")
		minBudget  = fs.Int("minimize-budget", fuzz.DefaultMinimizeBudget, "max re-runs per minimized failure")
		jsonOut    = fs.Bool("json", false, "print the summary as JSON")
		verbose    = fs.Bool("v", false, "print one line per non-clean run")
		metricsOut = fs.String("metrics-out", "", "re-run the first failing case (else the first case) with telemetry and write the snapshot to this file")
		spansOut   = fs.String("spans-out", "", "re-run the first failing case (else the first case) with span recording and write the binary dump to this file (render with dvmc-stat timeline)")
		coverage   = fs.Bool("coverage", false, "coverage-guided mode: after a random prefix, breed mutants from runs that reached new coverage (-n stays the total case budget)")
		gens       = fs.Int("gens", 4, "breeding generations (with -coverage)")
		genSize    = fs.Int("gen-size", 0, "mutants per generation (with -coverage; 0 = n/8)")
		kindsStr   = fs.String("kinds", "", "comma-separated fault-kind pool (empty = every kind); known: "+strings.Join(fuzz.FaultKindNames(), ", "))
	)
	parseFlags(fs, args)
	if fs.NArg() != 0 {
		fatalf("run: unexpected arguments %v", fs.Args())
	}
	base := fuzz.CampaignConfig{
		Seed: *seed, Runs: *n, Workers: *workers, FaultFrac: *faultFrac,
		Budget: *budget, CorpusDir: *corpus,
		Minimize: *minimize, MinimizeBudget: *minBudget,
		Kinds: parseKinds(*kindsStr),
	}
	var (
		records []fuzz.Record
		summary fuzz.Summary
		printed any
	)
	if *coverage {
		per := *genSize
		if per == 0 {
			per = *n / 8
			if per < 1 {
				per = 1
			}
		}
		init := *n - *gens*per
		if init < 1 {
			fatalf("run: -n %d leaves no random prefix for %d generations of %d mutants", *n, *gens, per)
		}
		cc := fuzz.CoverageConfig{Campaign: base, InitRuns: init, Generations: *gens, PerGen: per}
		var covSum fuzz.CoverageSummary
		var err error
		records, covSum, _, err = fuzz.RunCoverage(cc)
		if err != nil {
			fatalf("run: %v", err)
		}
		summary, printed = covSum.Summary, covSum
	} else {
		cp, err := fuzz.NewCampaign(base)
		if err != nil {
			fatalf("run: %v", err)
		}
		records, summary, _, err = cp.Run()
		if err != nil {
			fatalf("run: %v", err)
		}
		printed = summary
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(printed); err != nil {
			fatalf("run: %v", err)
		}
	} else {
		fmt.Print(printed)
	}
	if *verbose {
		for _, r := range fuzz.SortRecordsByClass(records) {
			if r.Result.Class == fuzz.ClassAgreeClean {
				continue
			}
			fmt.Printf("  run %d: %s %s/%s", r.Index, r.Result.Class, r.Case.Model, r.Case.Protocol)
			if r.Case.Fault != nil {
				fmt.Printf(" fault=%s@%d", r.Case.Fault.Kind, r.Case.Fault.Cycle)
			}
			if r.Result.Detail != "" {
				fmt.Printf(" (%s)", r.Result.Detail)
			}
			if r.CorpusFile != "" {
				fmt.Printf(" -> %s", r.CorpusFile)
			}
			fmt.Println()
		}
	}
	if *metricsOut != "" && len(records) > 0 {
		if err := writeRunSnapshot(records, *metricsOut); err != nil {
			fatalf("run: metrics: %v", err)
		}
		if *metricsOut != "-" {
			fmt.Printf("telemetry snapshot written to %s\n", *metricsOut)
		}
	}
	if *spansOut != "" && len(records) > 0 {
		rec, err := fuzz.WriteSpans(records, *spansOut)
		if err != nil {
			fatalf("run: spans: %v", err)
		}
		// stderr, so -json stdout stays machine-readable (and cmp-equal
		// to a farm run's summary).
		fmt.Fprintf(os.Stderr, "span dump for run %d (%s) written to %s\n", rec.Index, rec.Result.Class, *spansOut)
	}
	if summary.Failed() {
		fmt.Fprintf(os.Stderr, "dvmc-fuzz: %d failing runs\n", summary.Failures)
		os.Exit(2)
	}
}

// writeRunSnapshot re-executes one campaign case — the first failing
// run if any, else the first run — with telemetry enabled, and records
// its snapshot. The campaign itself stays uninstrumented so telemetry
// cost never skews classification timing; the re-run reproduces the
// same deterministic execution with sampling on.
func writeRunSnapshot(records []fuzz.Record, path string) error {
	rec := records[0]
	for _, r := range fuzz.SortRecordsByClass(records) {
		if r.Result.Class.Failure() {
			rec = r
			break
		}
	}
	c := rec.Case
	cfg, err := c.Config()
	if err != nil {
		return err
	}
	cfg = cfg.WithTelemetry(dvmc.TelemetryOn())
	name := c.Name
	if name == "" {
		name = "fuzz"
	}
	w := c.Program.Spec(name)

	var sys *dvmc.System
	if c.Fault == nil {
		sys, err = dvmc.NewSystem(cfg, w)
		if err != nil {
			return err
		}
		sys.RunToCompletion(c.Budget)
	} else {
		inj, err := c.Fault.Injection()
		if err != nil {
			return err
		}
		_, sys, err = dvmc.RunInjectionSystem(cfg, w, inj, c.Budget)
		if err != nil {
			return err
		}
	}
	return telemetry.WriteSnapshotFile(sys.TelemetrySnapshot(), path)
}

func shrink(args []string) {
	fs := newFlagSet("shrink")
	var (
		budget = fs.Int("budget", fuzz.DefaultMinimizeBudget, "max re-runs")
		out    = fs.String("o", "-", "output path ('-' for stdout)")
	)
	parseFlags(fs, args)
	if fs.NArg() != 1 {
		fatalf("shrink: need exactly one case file")
	}
	c, err := fuzz.LoadCase(fs.Arg(0))
	if err != nil {
		fatalf("shrink: %v", err)
	}
	min, err := fuzz.Minimize(c, *budget)
	if err != nil {
		fatalf("shrink: %v", err)
	}
	data, err := min.Encode()
	if err != nil {
		fatalf("shrink: %v", err)
	}
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("shrink: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dvmc-fuzz: shrunk to %d threads, %d ops (%s)\n",
		min.Program.NumThreads(), min.Program.NumOps(), min.Expect)
}

func replay(args []string) {
	if len(args) == 0 {
		fatalf("replay: need at least one corpus directory or case file")
	}
	bad := 0
	total := 0
	for _, arg := range args {
		var results []fuzz.ReplayResult
		info, err := os.Stat(arg)
		switch {
		case err != nil:
			fatalf("replay: %v", err)
		case info.IsDir():
			results, err = fuzz.ReplayDir(arg)
			if err != nil {
				fatalf("replay: %v", err)
			}
		default:
			c, err := fuzz.LoadCase(arg)
			if err != nil {
				fatalf("replay: %v", err)
			}
			res, _, err := fuzz.RunCase(c)
			if err != nil {
				fatalf("replay: %v", err)
			}
			results = []fuzz.ReplayResult{{
				Path: arg, Expect: c.Expect, Got: res.Class, Result: res,
				OK: c.Expect == "" || res.Class == c.Expect,
			}}
		}
		for _, r := range results {
			total++
			status := "ok"
			if !r.OK {
				status = "MISMATCH"
				bad++
			}
			fmt.Printf("%-8s %s: expect %s, got %s\n", status, r.Path, orDash(string(r.Expect)), orDash(string(r.Got)))
			if r.Result.Panic != "" {
				fmt.Printf("         %s\n", r.Result.Panic)
			}
			if r.TraceDiff != "" {
				fmt.Printf("         %s\n", r.TraceDiff)
			}
		}
	}
	fmt.Printf("replayed %d cases, %d mismatches\n", total, bad)
	if bad > 0 {
		os.Exit(2)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvmc-fuzz: "+format+"\n", args...)
	os.Exit(1)
}
