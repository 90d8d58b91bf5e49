// Package dvmc is a full reproduction of "Dynamic Verification of Memory
// Consistency in Cache-Coherent Multithreaded Computer Architectures"
// (Meixner & Sorin, DSN 2006): a cycle-level multiprocessor simulator —
// out-of-order cores, MOSI directory and snooping coherence over a
// bandwidth-modelled interconnect, SafetyNet-style backward error
// recovery — with the paper's three DVMC checkers attached: Uniprocessor
// Ordering (verification-cache replay), Allowable Reordering (ordering-
// table sequence checks), and Cache Coherence (epoch tables with CRC-16
// data signatures over 16-bit logical time).
//
// The package is the public façade: build a System from a Config and a
// workload, run it for a number of transactions, and read Results. The
// experiment harness in experiments.go regenerates every table and
// figure of the paper's evaluation through this API; cmd/dvmc-bench
// prints them.
package dvmc

import (
	"fmt"
	"strings"

	"dvmc/internal/coherence"
	"dvmc/internal/consistency"
	"dvmc/internal/proc"
	"dvmc/internal/safetynet"
	"dvmc/internal/sim"
	"dvmc/internal/trace"
)

// TraceConfig re-exports the execution-trace capture configuration.
type TraceConfig = trace.Config

// TraceOn returns a capture-enabled trace configuration with defaults.
func TraceOn() TraceConfig { return trace.On() }

// Protocol selects the coherence substrate (paper Table 6 evaluates
// both).
type Protocol uint8

// Supported protocols.
const (
	Directory Protocol = iota + 1
	Snooping
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Directory:
		return "directory"
	case Snooping:
		return "snooping"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// ParseProtocol resolves a protocol by name, in any letter case.
func ParseProtocol(name string) (Protocol, error) {
	for _, p := range [...]Protocol{Directory, Snooping} {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("dvmc: unknown protocol %q (known: directory, snooping)", name)
}

// Model re-exports the consistency models for the public API.
type Model = consistency.Model

// The runtime-selectable SPARC v9 consistency models plus SC.
const (
	SC  = consistency.SC
	TSO = consistency.TSO
	PSO = consistency.PSO
	RMO = consistency.RMO
)

// Models lists the four models in evaluation order.
var Models = []Model{SC, TSO, PSO, RMO}

// ParseModel resolves a runtime-selectable model by name, in any letter
// case.
func ParseModel(name string) (Model, error) {
	for _, m := range Models {
		if strings.EqualFold(name, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("dvmc: unknown model %q (known: SC, TSO, PSO, RMO)", name)
}

// ClockGHz is the simulated core clock; it converts the paper's GB/s
// link bandwidths to bytes/cycle.
const ClockGHz = 2.0

// Cycle re-exports the simulated-time unit for public configuration.
type Cycle = sim.Cycle

// DVMCConfig toggles the three checkers independently, enabling the
// component-breakdown experiment of Figure 5 (SN, SN+DVCC, SN+DVUO,
// full DVMC).
type DVMCConfig struct {
	UniprocessorOrdering bool // verification stage + VC replay
	AllowableReordering  bool // sequence-number ordering checks
	CacheCoherence       bool // CET/MET epoch verification
}

// Full enables all three checkers.
func Full() DVMCConfig {
	return DVMCConfig{UniprocessorOrdering: true, AllowableReordering: true, CacheCoherence: true}
}

// Off disables every checker (the unprotected baseline).
func Off() DVMCConfig { return DVMCConfig{} }

// Any reports whether any checker is enabled.
func (d DVMCConfig) Any() bool {
	return d.UniprocessorOrdering || d.AllowableReordering || d.CacheCoherence
}

// Config describes a complete system. DefaultConfig mirrors the paper's
// Tables 6 and 7; ScaledConfig shrinks the geometry so whole-program
// simulations finish quickly while preserving miss behaviour.
type Config struct {
	Nodes    int
	Protocol Protocol
	Model    Model

	// LinkGBps is the interconnect link bandwidth (paper sweeps 1–3 GB/s
	// in Figure 8; 2.5 GB/s is the default).
	LinkGBps float64
	// HopLatency is the per-hop pipeline latency of the torus.
	HopLatency sim.Cycle

	Memory coherence.Config // cache geometry and latencies (Table 6)
	Proc   proc.Config      // core parameters (Table 7)

	DVMC      DVMCConfig
	SafetyNet bool
	SNConfig  safetynet.Config

	// Trace captures per-processor commit/perform events into a binary
	// execution trace that internal/oracle can re-verify offline
	// (differential verification of the online checkers).
	Trace TraceConfig

	// Telemetry, when Enabled, schedules the cycle-driven sampler that
	// captures occupancy time series.
	Telemetry TelemetryConfig

	// Spans enables the causal span recorder: ring-buffered coherence-
	// transaction, fault-flight, and phase-profiling spans exportable as
	// a deterministic binary dump (see spans.go and internal/span).
	Spans SpanConfig

	// Seed drives every pseudo-random choice; perturbing it provides the
	// paper's "small pseudo-random perturbations" across repeated runs.
	Seed uint64
}

// DefaultConfig returns the paper's system configuration: 8 nodes,
// 64 KB L1s, a 4 MB L2 (the coherence point), 2.5 GB/s links, TSO with
// full DVMC and SafetyNet.
func DefaultConfig() Config {
	return Config{
		Nodes:      8,
		Protocol:   Directory,
		Model:      TSO,
		LinkGBps:   2.5,
		HopLatency: 15,
		Memory: coherence.Config{
			Nodes:  8,
			L1Sets: 256, L1Ways: 4, // 64 KB / 64 B
			L2Sets: 4096, L2Ways: 16, // 4 MB
			L1Latency:  2,
			L2Latency:  13,
			MemLatency: 160,
			MSHRs:      16,
		},
		Proc:      proc.DefaultConfig(),
		DVMC:      Full(),
		SafetyNet: true,
		SNConfig:  safetynet.DefaultConfig(),
		Seed:      1,
	}
}

// ScaledConfig returns a reduced geometry for whole-program runs (the
// workload footprints in internal/workload are scaled to match): caches
// small enough to miss, checkpoint interval short enough to exercise
// recovery, same latency ratios as DefaultConfig.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	cfg.Memory.L1Sets, cfg.Memory.L1Ways = 64, 2  // 8 KB
	cfg.Memory.L2Sets, cfg.Memory.L2Ways = 512, 4 // 128 KB
	cfg.SNConfig = safetynet.Config{Interval: 10000, Keep: 4}
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1 || c.Nodes > 64:
		return fmt.Errorf("dvmc: Nodes = %d, need 1..64", c.Nodes)
	case c.Protocol != Directory && c.Protocol != Snooping:
		return fmt.Errorf("dvmc: unknown protocol %v", c.Protocol)
	case c.Model < SC || c.Model > RMO:
		return fmt.Errorf("dvmc: unsupported model %v", c.Model)
	case c.LinkGBps <= 0:
		return fmt.Errorf("dvmc: LinkGBps = %v", c.LinkGBps)
	}
	if c.Memory.Nodes != c.Nodes {
		return fmt.Errorf("dvmc: Memory.Nodes %d != Nodes %d", c.Memory.Nodes, c.Nodes)
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if err := c.Proc.Validate(); err != nil {
		return err
	}
	if c.SafetyNet {
		return c.SNConfig.Validate()
	}
	return nil
}

// WithNodes returns a copy for a different node count (Figure 9 sweep).
func (c Config) WithNodes(n int) Config {
	c.Nodes = n
	c.Memory.Nodes = n
	return c
}

// WithModel returns a copy for a different consistency model.
func (c Config) WithModel(m Model) Config {
	c.Model = m
	return c
}

// WithProtocol returns a copy for a different coherence protocol.
func (c Config) WithProtocol(p Protocol) Config {
	c.Protocol = p
	return c
}

// WithLinkGBps returns a copy with different link bandwidth (Figure 8).
func (c Config) WithLinkGBps(g float64) Config {
	c.LinkGBps = g
	return c
}

// WithSeed returns a copy with a perturbed seed.
func (c Config) WithSeed(s uint64) Config {
	c.Seed = s
	return c
}

// WithTrace returns a copy with execution-trace capture configured.
func (c Config) WithTrace(t TraceConfig) Config {
	c.Trace = t
	return c
}

// TraceMeta returns the trace header a system built from this
// configuration stamps on its captured execution trace. External
// consumers that check events live (a streaming oracle attached via
// TraceConfig.Sink) need the same header to judge them against.
func (c Config) TraceMeta() trace.Meta {
	return trace.Meta{
		Version:  trace.Version,
		Nodes:    c.Nodes,
		Model:    c.Model,
		Protocol: uint8(c.Protocol - 1), // 0 directory, 1 snooping
		Seed:     c.Seed,
	}
}

// WithTelemetry returns a copy with telemetry sampling configured.
func (c Config) WithTelemetry(t TelemetryConfig) Config {
	c.Telemetry = t
	return c
}

// bytesPerCycle converts the configured link bandwidth.
func (c Config) bytesPerCycle() float64 { return c.LinkGBps / ClockGHz }
