// Command dvmc-bench regenerates the paper's evaluation: every figure of
// Section 6 (runtimes per model and protocol, the DVMC component
// breakdown, replay misses, link bandwidth, and the two sensitivity
// sweeps) plus the Section 6.1 error-detection campaign.
//
// The figure matrices fan out over a bounded worker pool (-workers;
// default: host CPUs). Tables are byte-identical at any worker count —
// every simulation is a sealed deterministic machine and workers write
// disjoint result slots; -compare re-runs each figure serially and
// fails if the parallel table differs.
//
// It prints tables, not measurements: how fast the figures regenerate
// is `go run ./benchmark` (workload paper-eval, harness.* metrics), and
// an instrumented OLTP run is `dvmc-sim -workload oltp -metrics-out`.
//
// Example:
//
//	dvmc-bench -fig all -reps 3 -txns 150
//	dvmc-bench -fig 5 -workers 8 -compare
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dvmc"
)

type figure struct {
	key, name string
	run       func(dvmc.ExperimentOpts) (dvmc.Table, error)
}

var figures = []figure{
	{"3", "Figure 3", func(o dvmc.ExperimentOpts) (dvmc.Table, error) { return dvmc.FigureRuntimes(dvmc.Directory, o) }},
	{"4", "Figure 4", func(o dvmc.ExperimentOpts) (dvmc.Table, error) { return dvmc.FigureRuntimes(dvmc.Snooping, o) }},
	{"5", "Figure 5", dvmc.Figure5},
	{"6", "Figure 6", dvmc.Figure6},
	{"7", "Figure 7", dvmc.Figure7},
	{"8", "Figure 8", dvmc.Figure8},
	{"9", "Figure 9", dvmc.Figure9},
	{"errors", "Section 6.1", func(o dvmc.ExperimentOpts) (dvmc.Table, error) {
		return dvmc.ErrorDetectionTable(10, 400_000, 42, o.Workers)
	}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges passed in: 0 on success, 1 on an
// unknown figure, a failed experiment or a parallel table that differs
// from its serial re-run, 2 on a flag error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvmc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 3|4|5|6|7|8|9|errors|all")
		reps    = fs.Int("reps", 3, "perturbed repetitions per configuration")
		txns    = fs.Uint64("txns", 120, "transactions per run")
		workers = fs.Int("workers", 0, "worker pool size for the figure matrices (0 = min(GOMAXPROCS, jobs), 1 = serial)")
		compare = fs.Bool("compare", false, "re-run each figure serially and fail unless the parallel table is identical")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	var selected []figure
	for _, f := range figures {
		if *fig == "all" || *fig == f.key {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "dvmc-bench: unknown figure %q\n", *fig)
		return 1
	}

	opts := dvmc.DefaultExperimentOpts()
	opts.Repetitions = *reps
	opts.Transactions = *txns
	opts.Workers = *workers

	for _, f := range selected {
		start := time.Now()
		t, err := f.run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "dvmc-bench: %s: %v\n", f.name, err)
			return 1
		}
		fmt.Fprintln(stdout, t)
		fmt.Fprintf(stdout, "  [%s regenerated in %v, %d worker(s)]\n\n", f.name, time.Since(start).Round(time.Millisecond), *workers)
		if !*compare {
			continue
		}
		serial := opts
		serial.Workers = 1
		st, err := f.run(serial)
		if err != nil {
			fmt.Fprintf(stderr, "dvmc-bench: %s (serial re-run): %v\n", f.name, err)
			return 1
		}
		identical := st.String() == t.String()
		fmt.Fprintf(stdout, "  [serial re-run; parallel table identical: %v]\n\n", identical)
		if !identical {
			fmt.Fprintf(stderr, "dvmc-bench: %s: parallel table differs from serial table (determinism regression)\n", f.name)
			return 1
		}
	}
	return 0
}
