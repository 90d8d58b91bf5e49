// Package telemetry is the simulator's deterministic observability
// layer: named counters and gauges with per-node, per-class, and
// per-invariant labels, fixed-capacity time-series rings fed by a
// cycle-driven Sampler, and snapshots that list a run's checker
// violations as structured events beside its detection latency.
//
// Nothing here keeps a counter or decides a latency. A Metric is a name,
// help, kind and label vector plus a read of the live component that
// keeps its value: TakeSnapshot reads every metric when the snapshot is
// taken, and the Sampler reads only the tracked ones into its rings.
// Snapshot.FoldViolations copies the system's violation list into the
// events section and the one detection it is handed into the latency
// section: the root package hands it what its injection concluded
// (InjectionResult's DetectionKind and Latency), so a snapshot reports
// the latency the Section 6.1 table and the fuzz summary report, and
// MergeSnapshots pools a campaign's runs into one entry per kind.
//
// The paper evaluates DVMC through end-of-run aggregates (runtime
// overhead, replay bandwidth, link utilisation, detection latency); this
// package adds visibility into how a run got there: VC and write-buffer
// occupancy over time, inform-queue backpressure at the METs, epoch-table
// pressure near Time16 wraparound, SafetyNet log growth, and per-invariant
// detection-latency distributions.
//
// Determinism is a first-class property, exactly as in the simulator
// proper: sampling is driven by the event kernel's cycle counter (never a
// wall clock), and snapshots, samplers and every encoder take metrics in
// sorted-name order — so a telemetry dump is a pure function of (Config,
// Workload, Seed) and can be pinned byte-for-byte by golden tests. The
// package therefore lives inside the dvmc-lint determinism allowlist.
// The sampler tick, the one steady-state path, is allocation-free,
// enforced by an AllocsPerRun assertion, matching the checker hot-path
// discipline.
//
// Wall-clock-facing surfaces (the live /metrics HTTP endpoint, pprof) are
// deliberately kept in the cmd layer, outside this package and outside
// the allowlist.
package telemetry

import "dvmc/internal/sim"

// DefaultEvery is the default sampling period in cycles. It is a power
// of two so the modulo on the sampler's per-cycle check is cheap.
const DefaultEvery sim.Cycle = 1024

// DefaultSeriesCap is the per-series ring capacity in samples. Rings
// keep the newest samples (flight-recorder semantics) once full.
const DefaultSeriesCap = 512

// DefaultMaxEvents bounds a snapshot's events section; further
// violations are counted but not listed.
const DefaultMaxEvents = 1024

// Config enables the telemetry sampler for one System.
type Config struct {
	// Enabled turns on cycle sampling: it schedules the Sampler on the
	// simulation kernel so time series are captured while the system
	// runs. A snapshot reads its counters from the live components
	// either way.
	Enabled bool
	// Every is the sampling period in cycles (0 means DefaultEvery).
	Every sim.Cycle
}

// On returns an enabled configuration with defaults.
func On() Config { return Config{Enabled: true} }
