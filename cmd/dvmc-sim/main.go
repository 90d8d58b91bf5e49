// Command dvmc-sim runs one full-system simulation: a multiprocessor
// with the selected coherence protocol and consistency model, a paper
// workload, and (optionally) DVMC verification plus SafetyNet recovery.
// It prints runtime, memory-system, interconnect, and checker statistics.
//
// Telemetry: -metrics-out records a cycle-sampled telemetry snapshot
// (inspect it with dvmc-stat); -http serves live /metrics (Prometheus
// text), /metrics.json, and /debug/pprof/ while the simulation runs.
// Both enable the deterministic cycle sampler. -spans-out records the
// causal span dump (coherence transactions, phase profile) — render it
// with dvmc-stat timeline and open in Perfetto.
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 violations detected.
//
// Examples:
//
//	dvmc-sim -workload oltp -model TSO -protocol directory -txns 200
//	dvmc-sim -workload apache -txns 500 -metrics-out run.json
//	dvmc-sim -workload oltp -txns 100000 -http :8080
package main

import (
	"flag"
	"fmt"
	"os"

	"dvmc"
	"dvmc/internal/network"
	"dvmc/internal/telemetry"
)

func main() {
	var (
		workloadName = flag.String("workload", "oltp", "workload: apache|oltp|jbb|slash|barnes|uniform")
		modelName    = flag.String("model", "TSO", "consistency model: SC|TSO|PSO|RMO")
		protoName    = flag.String("protocol", "directory", "coherence protocol: directory|snooping")
		nodes        = flag.Int("nodes", 8, "processor count")
		txns         = flag.Uint64("txns", 200, "transactions to complete")
		maxCycles    = flag.Uint64("max-cycles", 100_000_000, "cycle budget")
		seed         = flag.Uint64("seed", 1, "simulation seed")
		linkGBps     = flag.Float64("link", 2.5, "link bandwidth in GB/s")
		noDVMC       = flag.Bool("no-dvmc", false, "disable all DVMC checkers")
		noSN         = flag.Bool("no-safetynet", false, "disable SafetyNet BER")
		paperScale   = flag.Bool("paper-scale", false, "use the paper's full cache geometry (slower)")
		verbose      = flag.Bool("v", false, "full telemetry report (per-node metrics, latency, events)")
		metricsOut   = flag.String("metrics-out", "", "write the telemetry snapshot to this file (.json|.prom|.csv|.series.csv; '-' for stdout JSON)")
		sampleEvery  = flag.Uint64("sample-every", 0, "telemetry sampling period in cycles (0 = default)")
		httpAddr     = flag.String("http", "", "serve live /metrics, /metrics.json, and /debug/pprof/ on this address while running")
		spansOut     = flag.String("spans-out", "", "record causal spans and write the binary dump to this file (render with dvmc-stat timeline)")
	)
	flag.Parse()

	cfg := dvmc.ScaledConfig()
	if *paperScale {
		cfg = dvmc.DefaultConfig()
	}
	cfg = cfg.WithNodes(*nodes).WithLinkGBps(*linkGBps).WithSeed(*seed)
	model, err := dvmc.ParseModel(*modelName)
	if err != nil {
		fatalf("%v", err)
	}
	proto, err := dvmc.ParseProtocol(*protoName)
	if err != nil {
		fatalf("%v", err)
	}
	cfg = cfg.WithModel(model).WithProtocol(proto)
	if *noDVMC {
		cfg.DVMC = dvmc.Off()
	}
	if *noSN {
		cfg.SafetyNet = false
	}
	if *metricsOut != "" || *httpAddr != "" || *sampleEvery > 0 {
		t := dvmc.TelemetryOn()
		t.Every = dvmc.Cycle(*sampleEvery)
		cfg = cfg.WithTelemetry(t)
	}
	if *spansOut != "" {
		cfg = cfg.WithSpans(dvmc.SpansOn())
	}

	w, err := dvmc.WorkloadByName(*workloadName)
	if err != nil {
		fatalf("%v", err)
	}

	sys, err := dvmc.NewSystem(cfg, w)
	if err != nil {
		fatalf("assemble: %v", err)
	}
	fmt.Printf("dvmc-sim: %s on %d-node %v/%v system (dvmc=%v safetynet=%v link=%.1fGB/s)\n",
		w.Name, cfg.Nodes, cfg.Protocol, cfg.Model, cfg.DVMC.Any(), cfg.SafetyNet, cfg.LinkGBps)

	var res dvmc.Results
	if *httpAddr != "" {
		fmt.Printf("dvmc-sim: serving /metrics and /debug/pprof/ on %s\n", *httpAddr)
		res, err = runWithHTTP(sys, *httpAddr, *txns, *maxCycles)
	} else {
		res, err = sys.Run(*txns, *maxCycles)
	}
	if err != nil {
		fatalf("run: %v", err)
	}
	sys.DrainCheckers()

	fmt.Printf("\nruntime:        %d cycles for %d transactions (%.3f txn/kcycle)\n",
		res.Cycles, res.Transactions, res.TPKC())
	fmt.Printf("ops retired:    %d (loads executed %d, squashes spec=%d verify=%d)\n",
		res.OpsRetired, res.LoadsExecuted, res.SpecSquashes, res.VerifySquashes)
	fmt.Printf("L1:             %d hits / %d misses   L2: %d hits / %d misses\n",
		res.L1Hits, res.L1Misses, res.L2Hits, res.L2Misses)
	fmt.Printf("replay:         %d loads, %d L1 misses (ratio %.4f)\n",
		res.ReplayLoads, res.ReplayL1Misses, res.ReplayMissRatio())
	fmt.Printf("interconnect:   max link %.3f B/cycle, total %d bytes\n",
		res.MaxLinkBandwidth, res.TotalLinkBytes)
	for _, cl := range network.Classes {
		if bw := res.MaxLinkByClass[cl]; bw > 0 {
			fmt.Printf("                  %-10v %.4f B/cycle on hottest link\n", cl, bw)
		}
	}
	if cfg.DVMC.CacheCoherence {
		fmt.Printf("coherence chk:  %d informs (+%d open), %d processed at METs\n",
			res.Informs, res.OpenInforms, res.InformsProcessed)
	}
	if cfg.SafetyNet {
		fmt.Printf("safetynet:      %d checkpoints, %d log msgs, %d recoveries\n",
			res.Checkpoints, res.LogMessages, res.Recoveries)
	}
	fmt.Printf("violations:     %d\n", res.Violations)
	for _, v := range sys.Violations() {
		fmt.Printf("  %v\n", v)
	}

	// The telemetry registry is the single source of truth for detailed
	// statistics: the -v report, the -metrics-out file, and the live
	// /metrics endpoint all render the same snapshot.
	snap := sys.TelemetrySnapshot()
	if *verbose {
		fmt.Println()
		if err := snap.Text(os.Stdout); err != nil {
			fatalf("telemetry report: %v", err)
		}
	}
	if *metricsOut != "" {
		if err := telemetry.WriteSnapshotFile(snap, *metricsOut); err != nil {
			fatalf("%v", err)
		}
		if *metricsOut != "-" {
			fmt.Printf("telemetry snapshot written to %s\n", *metricsOut)
		}
	}
	if *spansOut != "" {
		dump, err := sys.SpanBytes()
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*spansOut, dump, 0o644); err != nil {
			fatalf("%v", err)
		}
		st := sys.SpanStats()
		fmt.Printf("span dump written to %s (%d spans recorded, %d evicted, %d hops)\n",
			*spansOut, st.Spans, st.SpansDropped, st.Events)
	}
	if res.Violations > 0 {
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvmc-sim: "+format+"\n", args...)
	os.Exit(1)
}
