// Command dvmc-sim runs one full-system simulation: a multiprocessor
// with the selected coherence protocol and consistency model, a paper
// workload, and (optionally) DVMC verification plus SafetyNet recovery.
// It prints runtime, memory-system, interconnect, and checker statistics.
//
// Artifacts: -metrics-out records a cycle-sampled telemetry snapshot
// (inspect it with dvmc-stat); -http serves live /metrics (Prometheus
// text), /metrics.json, and /debug/pprof/ while the simulation runs.
// Both enable the deterministic cycle sampler. -spans-out records the
// causal span dump (coherence transactions, the fault flight) — render
// it with dvmc-stat timeline, together with the snapshot's work series,
// and open in Perfetto. -trace-out records the execution trace, every
// commit and perform event — check it with dvmc-trace check. Any one of
// the three may be '-': that artifact is then all of stdout and the
// report goes to stderr.
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 violations detected.
//
// Examples:
//
//	dvmc-sim -workload oltp -model TSO -protocol directory -txns 200
//	dvmc-sim -workload apache -txns 500 -metrics-out run.json
//	dvmc-sim -workload oltp -txns 100000 -http :8080
//	dvmc-sim -nodes 4 -model RMO -trace-out - | dvmc-trace check -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"dvmc"
	"dvmc/internal/network"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges passed in; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvmc-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "oltp", "workload: apache|oltp|jbb|slash|barnes|uniform")
		modelName    = fs.String("model", "TSO", "consistency model: SC|TSO|PSO|RMO")
		protoName    = fs.String("protocol", "directory", "coherence protocol: directory|snooping")
		nodes        = fs.Int("nodes", 8, "processor count")
		txns         = fs.Uint64("txns", 200, "transactions to complete")
		maxCycles    = fs.Uint64("max-cycles", 100_000_000, "cycle budget")
		seed         = fs.Uint64("seed", 1, "simulation seed")
		linkGBps     = fs.Float64("link", 2.5, "link bandwidth in GB/s")
		noDVMC       = fs.Bool("no-dvmc", false, "disable all DVMC checkers")
		noSN         = fs.Bool("no-safetynet", false, "disable SafetyNet BER")
		paperScale   = fs.Bool("paper-scale", false, "use the paper's full cache geometry (slower)")
		verbose      = fs.Bool("v", false, "full telemetry report (per-node metrics, latency, events)")
		sampleEvery  = fs.Uint64("sample-every", 0, "telemetry sampling period in cycles (0 = default)")
		httpAddr     = fs.String("http", "", "serve live /metrics, /metrics.json, and /debug/pprof/ on this address while running")
		outs         dvmc.Outputs
	)
	fs.StringVar(&outs.Metrics, "metrics-out", "", "write the telemetry snapshot to this file (.json|.prom|.csv|.series.csv; '-' for stdout JSON)")
	fs.StringVar(&outs.Spans, "spans-out", "", "record causal spans and write the binary dump to this file ('-' for stdout; render with dvmc-stat timeline)")
	fs.StringVar(&outs.Trace, "trace-out", "", "record the execution trace and write it to this file ('-' for stdout; check with dvmc-trace check)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	failf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dvmc-sim: "+format+"\n", args...)
		return 1
	}
	if fs.NArg() > 0 {
		return failf("unexpected argument %q", fs.Arg(0))
	}
	report, err := outs.Report(stdout, stderr)
	if err != nil {
		return failf("%v", err)
	}

	cfg := dvmc.ScaledConfig()
	if *paperScale {
		cfg = dvmc.DefaultConfig()
	}
	cfg = cfg.WithNodes(*nodes).WithLinkGBps(*linkGBps).WithSeed(*seed)
	model, err := dvmc.ParseModel(*modelName)
	if err != nil {
		return failf("%v", err)
	}
	proto, err := dvmc.ParseProtocol(*protoName)
	if err != nil {
		return failf("%v", err)
	}
	cfg = cfg.WithModel(model).WithProtocol(proto)
	if *noDVMC {
		cfg.DVMC = dvmc.Off()
	}
	if *noSN {
		cfg.SafetyNet = false
	}
	cfg = outs.Observe(cfg)
	if cfg.Telemetry.Enabled || *httpAddr != "" || *sampleEvery > 0 {
		t := dvmc.TelemetryOn()
		t.Every = dvmc.Cycle(*sampleEvery)
		cfg = cfg.WithTelemetry(t)
	}

	w, err := dvmc.WorkloadByName(*workloadName)
	if err != nil {
		return failf("%v", err)
	}

	sys, err := dvmc.NewSystem(cfg, w)
	if err != nil {
		return failf("assemble: %v", err)
	}
	fmt.Fprintf(report, "dvmc-sim: %s on %d-node %v/%v system (dvmc=%v safetynet=%v link=%.1fGB/s)\n",
		w.Name, cfg.Nodes, cfg.Protocol, cfg.Model, cfg.DVMC.Any(), cfg.SafetyNet, cfg.LinkGBps)

	var res dvmc.Results
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return failf("http: %v", err)
		}
		fmt.Fprintf(report, "dvmc-sim: serving /metrics and /debug/pprof/ on %s\n", ln.Addr())
		res, err = runWithHTTP(sys, ln, *txns, *maxCycles)
	} else {
		res, err = sys.Run(*txns, *maxCycles)
	}
	if err != nil {
		return failf("run: %v", err)
	}
	if err := outs.Finish(sys); err != nil {
		return failf("%v", err)
	}

	fmt.Fprintf(report, "\nruntime:        %d cycles for %d transactions (%.3f txn/kcycle)\n",
		res.Cycles, res.Transactions, res.TPKC())
	fmt.Fprintf(report, "ops retired:    %d (loads executed %d, squashes spec=%d verify=%d)\n",
		res.OpsRetired, res.LoadsExecuted, res.SpecSquashes, res.VerifySquashes)
	fmt.Fprintf(report, "L1:             %d hits / %d misses   L2: %d hits / %d misses\n",
		res.L1Hits, res.L1Misses, res.L2Hits, res.L2Misses)
	fmt.Fprintf(report, "replay:         %d loads, %d L1 misses (ratio %.4f)\n",
		res.ReplayLoads, res.ReplayL1Misses, res.ReplayMissRatio())
	fmt.Fprintf(report, "interconnect:   max link %.3f B/cycle, total %d bytes\n",
		res.MaxLinkBandwidth, res.TotalLinkBytes)
	for _, cl := range network.Classes {
		if bw := res.MaxLinkByClass[cl]; bw > 0 {
			fmt.Fprintf(report, "                  %-10v %.4f B/cycle on hottest link\n", cl, bw)
		}
	}
	if cfg.DVMC.CacheCoherence {
		fmt.Fprintf(report, "coherence chk:  %d informs (+%d open), %d processed at METs\n",
			res.Informs, res.OpenInforms, res.InformsProcessed)
	}
	if cfg.SafetyNet {
		fmt.Fprintf(report, "safetynet:      %d checkpoints, %d log msgs, %d recoveries\n",
			res.Checkpoints, res.LogMessages, res.Recoveries)
	}
	fmt.Fprintf(report, "violations:     %d\n", res.Violations)
	for _, v := range sys.Violations() {
		fmt.Fprintf(report, "  %v\n", v)
	}

	// The telemetry registry is the single source of truth for detailed
	// statistics: the -v report, the -metrics-out file, and the live
	// /metrics endpoint all render a snapshot of it.
	if *verbose {
		fmt.Fprintln(report)
		if err := sys.TelemetrySnapshot().Text(report); err != nil {
			return failf("telemetry report: %v", err)
		}
	}
	if err := outs.Write(sys, stdout, report); err != nil {
		return failf("%v", err)
	}
	if res.Violations > 0 {
		return 2
	}
	return 0
}
