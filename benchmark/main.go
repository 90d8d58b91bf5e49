// Command benchmark is the performance ledger of the DVMC reproduction:
// five workloads, three end-to-end metrics each, and per-layer metrics
// obtained from outside the program (see README.md).
//
//	go run ./benchmark                      every workload, both passes, tables + -out JSON
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	                                        one run; the last stdout line is the result object
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark manifest             print BENCHMARK.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// env is what a workload run is given.
type env struct {
	seed   uint64
	scale  float64 // 1 at run_seconds; every size below is multiplied by it
	W      int
	procs  int // GOMAXPROCS of the timed units; set-ups run on 1
	traced bool
	rec    *Recorder // the benchmark's span recorder; off in an untraced run
	root   int       // the workload's root span
	tmp    string    // scratch directory inside the working directory
}

// timedPass runs the workload's timed units and stores its end-to-end
// metrics. A traced run alternates each untraced unit with the traced
// one traced(parent) returns, so that both see the same host; the
// end-to-end metrics come from the untraced units either way.
func (e *env) timedPass(res *WorkloadResult, rounds int, work float64, plain func(int), traced func(parent int) func(int)) {
	e.rec.Do(e.root, "timed-pass", func(id int) {
		units := []func(int){plain}
		if e.traced {
			units = append(units, traced(id))
		}
		secs, allocs := interleave(rounds, units...)
		res.setE2E(secs[0], work, allocs[0])
		if e.traced {
			res.setLayer("bench.trace_overhead_pct", overheadPct(secs[0], secs[1]))
		}
	})
}

var runners = map[string]func(*env, WorkloadDef) (*WorkloadResult, error){
	wlSimDir: runSim,
	wlSimSnp: runSim,
	wlOracle: runOracle,
	wlFarm:   runFarm,
	wlEval:   runEval,
}

// quickScale is -quick: about 1/50 of the run_seconds size.
const quickScale = 0.02

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "manifest":
			os.Exit(manifestMain(os.Stdout))
		case "rss-child":
			os.Exit(rssChild(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all five, untraced and traced)")
	seed := fs.Uint64("seed", 1, "workload seed; the program receives only inputs generated from it")
	seconds := fs.Float64("seconds", runSecond, "how long the timed pass should measure on the reference host; sizes scale with it")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	quick := fs.Bool("quick", false, "smoke size: about 1/50 of -seconds 10")
	out := fs.String("out", "", "write the full result document here (input of compare)")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans here as Chrome trace JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need -seconds > 0, -trace 0|1 and no positional arguments")
		return 2
	}
	scale := *seconds / runSecond
	if *quick {
		scale = quickScale
	}

	set := &RunSet{Schema: resultSchema, Host: hostFacts(), W: workers(), Seed: *seed, Seconds: *seconds, Quick: *quick}
	var names []string
	if *workload != "" {
		if _, ok := workloadDef(*workload); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	} else {
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
		*trace = 1
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // the workloads set it
	tmp, err := os.MkdirTemp(".", ".dvmc-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var chrome []chromeEvent
	for pid, name := range names {
		def, _ := workloadDef(name)
		e := &env{seed: *seed, scale: scale, W: set.W, traced: *trace == 1, rec: newRecorder(*trace == 1), tmp: tmp}
		e.procs = 1
		if def.Parallel {
			e.procs = set.W
		}
		runtime.GOMAXPROCS(1)
		start := time.Now()
		e.root = e.rec.Begin(-1, 0, name)
		res, err := runners[name](e, def)
		e.rec.End(e.root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		res.WallS = time.Since(start).Seconds()
		res.GOMAXPROCS = e.procs
		if e.traced {
			res.fillLayers()
			spanDetail(res, e.rec.Spans())
			chrome = append(chrome, chromeEvents(e.rec.Spans(), pid+1, name)...)
		}
		res.print(stdout)
		set.Workloads = append(set.Workloads, res)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return writeChrome(w, chrome) }); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		if err := set.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The last line of standard output is the result object of the
	// (last) workload run.
	line, err := set.Workloads[len(set.Workloads)-1].contractLine(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// writeFile creates path, lets fn write it, and reports the first error
// of writing and closing.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDetail records the traced pass's stage self times, and how much of
// the traced pass's wall time they account for.
func spanDetail(res *WorkloadResult, spans []Span) {
	if len(spans) == 0 {
		return
	}
	self := selfByName(spans)
	ms := make(map[string]float64, len(self))
	var sum time.Duration
	for name, d := range self {
		ms[name] = float64(d) / float64(time.Millisecond)
		sum += d
	}
	var root time.Duration
	for _, s := range spans {
		if s.Parent < 0 && s.Lane == 0 {
			root += s.End - s.Start
		}
	}
	if res.Detail == nil {
		res.Detail = make(map[string]any)
	}
	res.Detail["span_self_ms"] = ms
	res.Detail["span_self_sum_ms"] = float64(sum) / float64(time.Millisecond)
	res.Detail["span_root_ms"] = float64(root) / float64(time.Millisecond)
}
