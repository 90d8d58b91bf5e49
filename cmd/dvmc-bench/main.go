// Command dvmc-bench regenerates the paper's evaluation: every figure of
// Section 6 (runtimes per model and protocol, the DVMC component
// breakdown, replay misses, link bandwidth, and the two sensitivity
// sweeps) plus the Section 6.1 error-detection campaign.
//
// The selected figures run as one matrix: every distinct simulation
// they need executes once, and every run and §6.1 injection is one slot
// of a single bounded worker pool (-workers; default: host CPUs). Tables
// are byte-identical at any worker count — every simulation is a sealed
// deterministic machine and workers write disjoint result slots;
// -compare re-runs the matrix serially and fails if any table differs.
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
	"strings"
	"time"

	"dvmc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// key is a figure's -fig value: its number, or "errors" for the §6.1
// table.
func key(f dvmc.Figure) string {
	if n, ok := strings.CutPrefix(f.Name, "Figure "); ok {
		return n
	}
	return "errors"
}

// run is main with its process edges passed in: 0 on success, 1 on an
// unknown figure, a bad size, a failed experiment or a parallel table
// that differs from its serial re-run, 2 on a flag error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvmc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 3|4|5|6|7|8|9|errors|all")
		reps    = fs.Int("reps", 3, "perturbed repetitions per configuration")
		txns    = fs.Uint64("txns", 120, "transactions per run")
		workers = fs.Int("workers", 0, "worker pool size for the evaluation matrix (0 = min(GOMAXPROCS, jobs), 1 = serial)")
		compare = fs.Bool("compare", false, "re-run the matrix serially and fail unless every parallel table is identical")
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

	var selected []dvmc.Figure
	for _, f := range append(dvmc.Figures(), dvmc.ErrorDetection(10, 400_000, 42)) {
		if *fig == "all" || *fig == key(f) {
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
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "dvmc-bench: -reps %d -txns %d: %v\n", *reps, *txns, err)
		return 1
	}

	start := time.Now()
	tables, err := dvmc.Evaluate(selected, opts)
	if err != nil {
		fmt.Fprintf(stderr, "dvmc-bench: %v\n", err)
		return 1
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t)
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "  [%d table(s) from one matrix regenerated in %v, %d worker(s)]\n", len(tables), time.Since(start).Round(time.Millisecond), *workers)
	if !*compare {
		return 0
	}
	serial := opts
	serial.Workers = 1
	st, err := dvmc.Evaluate(selected, serial)
	if err != nil {
		fmt.Fprintf(stderr, "dvmc-bench: serial re-run: %v\n", err)
		return 1
	}
	var differ []string
	for i := range tables {
		if st[i].String() != tables[i].String() {
			differ = append(differ, selected[i].Name)
		}
	}
	fmt.Fprintf(stdout, "  [serial re-run; parallel table identical: %v]\n", len(differ) == 0)
	if len(differ) != 0 {
		fmt.Fprintf(stderr, "dvmc-bench: %s: parallel table differs from serial table (determinism regression)\n", strings.Join(differ, ", "))
		return 1
	}
	return 0
}
