package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file is the single table of what the benchmark measures:
// workloads, end-to-end metrics with their regression bounds, and
// per-layer metrics with the method that obtains each one from outside
// the program, the end-to-end metric it should move, and the workloads
// on which it is measured. BENCHMARK.json is generated from it
// (`go run ./benchmark manifest`) and README.md explains it.

// Workload names.
const (
	wlSimDir  = "sim-dir-tso-oltp"
	wlSimSnp  = "sim-snoop-rmo-slash"
	wlOracle  = "oracle-replay"
	wlFarm    = "fuzz-farm"
	wlEval    = "paper-eval"
	runSecond = 10 // BENCHMARK.json run_seconds: the size every constant below is tuned for
)

// WorkloadDef describes one workload. Unit is the unit of work its
// rate metric counts; Native is the name that rate has in the issue
// that defined the benchmark and in the paper-facing documentation.
type WorkloadDef struct {
	Name   string
	Why    string
	Unit   string
	Native string
	// Parallel workloads run their timed units on GOMAXPROCS(W); the
	// others, and every set-up, run on GOMAXPROCS(1) (see README.md,
	// "One P unless the workload is the farm").
	Parallel bool
}

var workloadDefs = []WorkloadDef{
	{wlSimDir, "steady-state simulation on directory+torus under TSO: kernel, proc, dircache/dirhome and the DVMC checkers do all the work; oracle, trace and fabric do none",
		"simulated cycles", "sim_cycles_per_s", false},
	{wlSimSnp, "same layers used differently: snoopcache/snoophome + broadcast tree under RMO with a write-sharing mix, so a gain bought for the directory path at the snooping path's cost shows",
		"simulated cycles", "sim_cycles_per_s", false},
	{wlOracle, "offline checking of one recorded trace: trace decode + stream oracle do all the work, the simulator none",
		"trace events", "oracle_events_per_s", false},
	{wlFarm, "the campaign user's path: many short traced cases with inline oracle and fault injection through coordinator, HTTP workers, checkpoint and merge; construction, recorders and fabric dominate",
		"fuzz cases", "farm_cases_per_s", true},
	{wlEval, "what dvmc-bench -fig users wait for: Figure 5 plus the section 6.1 injection table, many cold systems run briefly under the parallel figure harness with ECC-on injection and recovery",
		"simulator runs", "eval_runs_per_s", false},
}

// Metric is one end-to-end or per-layer metric.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"

	// End-to-end only. Bound is the share of the parent's median by
	// which the metric may worsen before a change is rejected, over runs
	// with different seeds. SameSeed is the bound compare applies to two
	// runs of one seed, where counts repeat.
	Bound    float64
	SameSeed float64

	// Per-layer only.
	Method string   // how the number is obtained from outside the program
	Moves  string   // the end-to-end metric a change to this layer should move
	On     []string // workloads whose traced pass measures it; it reads 0 elsewhere and must not move them
}

// End-to-end metric names.
const (
	mSetup  = "setup_s"
	mRate   = "work_per_s"
	mAllocs = "allocs_per_work"
)

var endToEnd = []Metric{
	{Name: mRate, Unit: "1/s", Better: "higher", Bound: 0.25, SameSeed: 0.25},
	{Name: mAllocs, Unit: "count", Better: "lower", Bound: 0.25, SameSeed: 0.01},
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.25},
}

// Methods.
const (
	methodSpan   = "stage-span"
	methodAblate = "ablation-delta"
	methodDriver = "layer-driver"
	methodCount  = "simulated-count"
	methodBench  = "benchmark-self"
)

var (
	onSims  = []string{wlSimDir, wlSimSnp}
	onDir   = []string{wlSimDir}
	onSnp   = []string{wlSimSnp}
	onOrc   = []string{wlOracle}
	onFarm  = []string{wlFarm}
	onEval  = []string{wlEval}
	onEvery = []string{wlSimDir, wlSimSnp, wlOracle, wlFarm, wlEval}
)

var perLayer = []Metric{
	// Method 1: stage spans around public calls.
	{Name: "harness.new_system_us", Unit: "us", Better: "lower", Method: methodSpan, Moves: mRate, On: onEval},
	{Name: "harness.fig5_wall_s", Unit: "s", Better: "lower", Method: methodSpan, Moves: mRate, On: onEval},
	{Name: "harness.s61_wall_s", Unit: "s", Better: "lower", Method: methodSpan, Moves: mRate, On: onEval},
	{Name: "harness.serial_wall_s", Unit: "s", Better: "lower", Method: methodSpan, Moves: mSetup, On: onEval},
	{Name: "harness.parallel_speedup", Unit: "x", Better: "higher", Method: methodSpan, Moves: mRate, On: onEval},
	{Name: "inject.us_per_case", Unit: "us", Better: "lower", Method: methodSpan, Moves: mRate, On: onEval},
	{Name: "inject.applied_share", Unit: "ratio", Better: "higher", Method: methodSpan, Moves: mRate, On: onEval},

	{Name: "fuzz.derive_us_per_case", Unit: "us", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fuzz.run_us_per_case", Unit: "us", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fuzz.serial_cases_per_s", Unit: "1/s", Better: "higher", Method: methodSpan, Moves: mSetup, On: onFarm},
	{Name: "fuzz.case_codec_us", Unit: "us", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fabric.execute_shard_ms", Unit: "ms", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fabric.lease_us", Unit: "us", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fabric.complete_us", Unit: "us", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fabric.finalize_ms", Unit: "ms", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fabric.speedup_vs_serial", Unit: "x", Better: "higher", Method: methodSpan, Moves: mRate, On: onFarm},
	{Name: "fabric.idle_wait_ms", Unit: "ms", Better: "lower", Method: methodSpan, Moves: mRate, On: onFarm},

	{Name: "trace.decode_ns_per_event", Unit: "ns", Better: "lower", Method: methodSpan, Moves: mRate, On: onOrc},
	{Name: "trace.bytes_per_event", Unit: "B", Better: "lower", Method: methodSpan, Moves: mRate, On: onOrc},
	{Name: "stream.check_ns_per_event", Unit: "ns", Better: "lower", Method: methodSpan, Moves: mRate, On: onOrc},
	{Name: "stream.shards2_ns_per_event", Unit: "ns", Better: "lower", Method: methodSpan, Moves: mRate, On: onOrc},
	{Name: "stream.max_frontier", Unit: "count", Better: "lower", Method: methodSpan, Moves: mAllocs, On: onOrc},
	{Name: "stream.peak_rss_mb", Unit: "MB", Better: "lower", Method: methodSpan, Moves: mAllocs, On: onOrc},
	{Name: "oracle.batch_ns_per_event", Unit: "ns", Better: "lower", Method: methodSpan, Moves: mSetup, On: onOrc},
	{Name: "oracle.pair_checks_per_event", Unit: "count", Better: "lower", Method: methodSpan, Moves: mRate, On: onOrc},

	// Method 2: Figure 5's decomposition applied to host time.
	{Name: "sim.base_ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "sim.base_allocs_per_kcycle", Unit: "count", Better: "lower", Method: methodAblate, Moves: mAllocs, On: onSims},
	{Name: "safetynet.ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "core.dvcc_ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "core.dvuo_ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "core.dvar_ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "trace.record_ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "span.record_ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "telemetry.sample_ns_per_cycle", Unit: "ns", Better: "lower", Method: methodAblate, Moves: mRate, On: onSims},
	{Name: "trace.allocs_per_kcycle", Unit: "count", Better: "lower", Method: methodAblate, Moves: mAllocs, On: onSims},
	{Name: "span.allocs_per_kcycle", Unit: "count", Better: "lower", Method: methodAblate, Moves: mAllocs, On: onSims},
	{Name: "telemetry.allocs_per_kcycle", Unit: "count", Better: "lower", Method: methodAblate, Moves: mAllocs, On: onSims},

	// Method 3: one layer's public API driven with a synthetic stream.
	{Name: "sim.eventq_ns_per_event", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "sim.kernel_ns_per_component_tick", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "network.torus_ns_per_msg", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "network.bcast_ns_per_msg", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSnp},
	{Name: "coherence.dir_ns_per_access", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onDir},
	{Name: "coherence.dir_allocs_per_access", Unit: "count", Better: "lower", Method: methodDriver, Moves: mAllocs, On: onDir},
	{Name: "coherence.snoop_ns_per_access", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSnp},
	{Name: "coherence.snoop_allocs_per_access", Unit: "count", Better: "lower", Method: methodDriver, Moves: mAllocs, On: onSnp},
	{Name: "proc.ns_per_retired_op", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "core.vc_replay_ns_per_op", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "core.cet_epoch_ns_per_op", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "core.met_inform_ns_per_op", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "core.reorder_ns_per_op", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "trace.write_ns_per_event", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onFarm},
	{Name: "span.txn_ns_per_span", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "span.encode_ns_per_span", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "hash.crc16_ns_per_block", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "workload.next_ns_per_op", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onSims},
	{Name: "fuzz.generate_us_per_program", Unit: "us", Better: "lower", Method: methodDriver, Moves: mRate, On: onFarm},
	{Name: "fabric.lease_table_ns_per_acquire", Unit: "ns", Better: "lower", Method: methodDriver, Moves: mRate, On: onFarm},
	{Name: "fabric.checkpoint_append_us", Unit: "us", Better: "lower", Method: methodDriver, Moves: mRate, On: onFarm},
	{Name: "fabric.checkpoint_read_mb_per_s", Unit: "MB/s", Better: "higher", Method: methodDriver, Moves: mRate, On: onFarm},
	{Name: "telemetry.merge_us_per_snapshot", Unit: "us", Better: "lower", Method: methodDriver, Moves: mRate, On: onFarm},

	// Method 4: exact simulated statistics of the timed pass — the
	// "simulated statistics unchanged" check for a simulator-speed change.
	{Name: "sim.tpkc", Unit: "count", Better: "higher", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "proc.ops_retired_per_kcycle", Unit: "count", Better: "higher", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "proc.squashes_per_kop", Unit: "count", Better: "lower", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "coherence.l1_miss_ratio", Unit: "ratio", Better: "lower", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "coherence.l2_miss_ratio", Unit: "ratio", Better: "lower", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "core.informs_per_kcycle", Unit: "count", Better: "lower", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "core.replay_loads_per_kop", Unit: "count", Better: "lower", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "network.link_bytes_per_kcycle", Unit: "B", Better: "lower", Method: methodCount, Moves: mRate, On: onSims},
	{Name: "safetynet.checkpoints", Unit: "count", Better: "lower", Method: methodCount, Moves: mRate, On: onSims},

	// Method 5: the benchmark's own spans.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Method: methodBench, Moves: mRate, On: onEvery},
}

// measuredOn reports whether the traced pass of workload wl measures m.
func (m Metric) measuredOn(wl string) bool {
	for _, w := range m.On {
		if w == wl {
			return true
		}
	}
	return false
}

func workloadDef(name string) (WorkloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadDef{}, false
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSecond,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{l.Name, l.Unit, l.Better})
	}
	return m
}

func manifestMain(stdout io.Writer) int {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
