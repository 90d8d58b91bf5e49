// Command dvmc-bench regenerates the paper's evaluation: every figure of
// Section 6 (runtimes per model and protocol, the DVMC component
// breakdown, replay misses, link bandwidth, and the two sensitivity
// sweeps) plus the Section 6.1 error-detection campaign, and judges that
// campaign.
//
// The selected figures run as one matrix: every distinct simulation
// they need executes once, and every run and §6.1 injection is one slot
// of a single bounded worker pool (-workers; default: host CPUs). Tables
// are byte-identical at any worker count — every simulation is a sealed
// deterministic machine and workers write disjoint result slots;
// -compare re-runs the matrix serially and fails if any table differs.
// Stdout holds the tables alone; the timing and -compare lines go to
// stderr.
//
// The Section 6.1 table (-fig errors) injects -faults random faults into
// OLTP for each protocol x consistency-model row, observes each for
// 400,000 cycles and draws them from seed 42. -each prints every
// injection's result after the tables, from the same run. The table's
// verdict (dvmc.Table.Verdict, as dvmc-farm's experiment job) fails on
// an undetected fault or a detection with no live pre-error checkpoint.
//
// It prints tables, not measurements: how fast the figures regenerate
// is `go run ./benchmark` (workload paper-eval, harness.* metrics), and
// an instrumented OLTP run is `dvmc-sim -workload oltp -metrics-out`.
//
// Example:
//
//	dvmc-bench -fig all -reps 3 -txns 150
//	dvmc-bench -fig 5 -workers 8 -compare
//	dvmc-bench -fig errors -each
//
// Exit codes: 0 clean (and for -h); 1 a usage error, an unknown figure,
// a bad size, a failed experiment or a parallel table that differs from
// its serial re-run; 2 the Section 6.1 verdict.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
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

// run is main with its process edges passed in; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvmc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 3|4|5|6|7|8|9|errors|all")
		reps    = fs.Int("reps", 3, "perturbed repetitions per configuration")
		txns    = fs.Uint64("txns", 120, "transactions per run")
		workers = fs.Int("workers", 0, "worker pool size for the evaluation matrix (0 = min(GOMAXPROCS, jobs), 1 = serial)")
		compare = fs.Bool("compare", false, "re-run the matrix serially and fail unless every parallel table is identical")
		faults  = fs.Int("faults", 10, "Section 6.1: injections per protocol x model row")
		each    = fs.Bool("each", false, "Section 6.1: print every injection's result after the tables")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *faults < 1 {
		fmt.Fprintf(stderr, "dvmc-bench: -faults %d: need at least one fault per row\n", *faults)
		return 1
	}

	var selected []dvmc.Figure
	for _, f := range append(dvmc.Figures(), dvmc.ErrorDetection(*faults, 400_000, 42)) {
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
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, t)
	}
	if *each {
		for _, t := range tables {
			if len(t.Injections) > 0 {
				fmt.Fprintln(stdout)
			}
			for i, r := range t.Injections { // row-major: row i/faults
				fmt.Fprintf(stdout, "  %-13s %v\n", t.Rows[i*len(t.Rows)/len(t.Injections)], r)
			}
		}
	}
	fmt.Fprintf(stderr, "  [%d table(s) from one matrix regenerated in %v, %d worker(s)]\n", len(tables), time.Since(start).Round(time.Millisecond), *workers)
	if *compare {
		serial := opts
		serial.Workers = 1
		st, err := dvmc.Evaluate(selected, serial)
		if err != nil {
			fmt.Fprintf(stderr, "dvmc-bench: serial re-run: %v\n", err)
			return 1
		}
		var differ []string
		for i := range tables {
			if st[i].String() != tables[i].String() || !reflect.DeepEqual(st[i].Injections, tables[i].Injections) {
				differ = append(differ, selected[i].Name)
			}
		}
		fmt.Fprintf(stderr, "  [serial re-run; parallel table identical: %v]\n", len(differ) == 0)
		if len(differ) != 0 {
			fmt.Fprintf(stderr, "dvmc-bench: %s: parallel table differs from serial table (determinism regression)\n", strings.Join(differ, ", "))
			return 1
		}
	}
	for i, t := range tables {
		if err := t.Verdict(); err != nil {
			fmt.Fprintf(stderr, "dvmc-bench: %s: %v\n", selected[i].Name, err)
			return 2
		}
	}
	return 0
}
