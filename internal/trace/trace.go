// Package trace implements the execution-trace subsystem: a low-overhead
// recorder of per-processor memory events (commit order, perform order, op
// type, address, value, membar mask, model tag, logical time) and a compact
// binary on-disk format with reader/writer support.
//
// Traces exist so that the repo's central soundness claim — fault-free runs
// never trip a DVMC checker, injected faults always do — has an independent
// referee: internal/oracle replays a captured trace offline against the
// internal/consistency ordering tables and re-derives the verdict, turning
// every litmus test and workload into a differential self-check of the
// online checkers (cf. Roy et al., "Fast and Generalized Polynomial Time
// Memory Consistency Verification", and Ravi et al., "QED").
//
// The simulator is single-goroutine (cycle-driven kernel), so the recorder
// is deliberately unsynchronised; it must not be shared across goroutines.
package trace

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// Kind distinguishes the event classes in a trace. The zero value is
// reserved (it doubles as the end-of-stream sentinel in the binary format),
// so all kinds are >= 1.
type Kind uint8

const (
	// EvCommit marks an operation committing: the point at which the
	// processor irrevocably decides the operation's place in program order
	// (retire for loads and membars, write-buffer insertion or retire for
	// stores).
	EvCommit Kind = 1
	// EvPerform marks an operation performing: the point at which its
	// value effect becomes globally visible per the paper's definition
	// (load bind, store reaching the cache, membar constraint satisfied).
	EvPerform Kind = 2
	// EvRecover marks a SafetyNet recovery: all architectural state rolled
	// back to the recovery point. Committed-but-unperformed operations
	// before this marker were discarded and will never perform; values
	// exposed before it may reappear.
	EvRecover Kind = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EvCommit:
		return "commit"
	case EvPerform:
		return "perform"
	case EvRecover:
		return "recover"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one record in an execution trace.
//
// For loads, Val is the architectural value — the value the program
// observes after any value-update repair by the verification stage. A
// speculative load's transient early binding is not architectural state;
// a corruption that escapes repair commits here and the oracle's value
// check catches it. Fwd marks loads satisfied by store-forwarding from
// the local LSQ; their values may come from stores that never commit, so
// the oracle skips value plausibility for them.
//
// For RMW performs, Val is the newly written value and Val2 the old value
// the atomic load half observed.
type Event struct {
	Kind  Kind
	Node  uint8
	Class consistency.OpClass    // Load, Store, or Membar (0 for EvRecover)
	Mask  consistency.MembarMask // membars only
	IsRMW bool
	Fwd   bool              // load satisfied by store-forwarding
	Model consistency.Model // model in force when the op issued
	Seq   uint64            // per-node monotonic sequence number
	Addr  mem.Addr
	Val   mem.Word
	Val2  mem.Word  // RMW perform: old (loaded) value
	Time  sim.Cycle // logical time of the event
}

// Op returns the event's operation as seen by an ordering table.
func (e Event) Op() consistency.Op {
	return consistency.Op{Class: e.Class, Mask: e.Mask}
}

// String implements fmt.Stringer for debugging and `dvmc-trace info -v`.
func (e Event) String() string {
	switch {
	case e.Kind == EvRecover:
		return fmt.Sprintf("t=%d n%d recover", e.Time, e.Node)
	case e.Class == consistency.Membar:
		return fmt.Sprintf("t=%d n%d %v seq=%d membar %v (%v)",
			e.Time, e.Node, e.Kind, e.Seq, e.Mask, e.Model)
	case e.IsRMW && e.Kind == EvPerform:
		return fmt.Sprintf("t=%d n%d %v seq=%d rmw @%#x old=%#x new=%#x (%v)",
			e.Time, e.Node, e.Kind, e.Seq, uint64(e.Addr), uint64(e.Val2), uint64(e.Val), e.Model)
	default:
		tag := ""
		if e.IsRMW {
			tag = " rmw"
		} else if e.Fwd {
			tag = " fwd"
		}
		return fmt.Sprintf("t=%d n%d %v seq=%d %v%s @%#x val=%#x (%v)",
			e.Time, e.Node, e.Kind, e.Seq, e.Class, tag, uint64(e.Addr), uint64(e.Val), e.Model)
	}
}

// Meta is the trace header: enough context to replay the trace against the
// right ordering tables and to label fixtures.
type Meta struct {
	Version  uint8
	Nodes    int
	Model    consistency.Model // the system's configured (initial) model
	Protocol uint8             // coherence protocol tag (0 directory, 1 snooping)
	Seed     uint64
	// Truncated marks a flight-recorder trace that evicted events: only
	// the most recent window survives. Header flags bit 0 on disk. The
	// oracle refuses truncated traces — completeness checks (commit
	// pairing, lost operations) are meaningless on a window.
	Truncated bool
}

// Config controls trace capture on a System.
type Config struct {
	// Enabled turns event capture on.
	Enabled bool
	// RingEvents is the event-ring capacity. In spill mode (the default)
	// the ring is a batching buffer: when full it is encoded and drained,
	// so the full run is captured. In flight-recorder mode it bounds the
	// retained window. 0 means DefaultRingEvents.
	RingEvents int
	// FlightRecorder keeps only the most recent RingEvents events,
	// overwriting the oldest — bounded memory for long runs, at the cost
	// of a truncated trace. Truncation is flagged in the header and the
	// oracle refuses such traces (completeness checks are meaningless on
	// a window), so flight traces are for debugging, not differential
	// verification.
	FlightRecorder bool
	// Sink, when non-nil, receives every captured event as it is emitted,
	// in addition to the byte recorder. This is how a streaming consistency
	// checker (internal/oracle/stream) rides along with the simulation
	// instead of replaying encoded bytes afterwards. The sink is called
	// from the simulation goroutine in event order; implementations that
	// hand events to other goroutines must not let anything flow back into
	// the simulation.
	Sink Sink
	// SinkOnly disables byte capture entirely: events go to Sink and the
	// run has no TraceBytes. This is the bounded-memory mode fuzz
	// campaigns use — a verdict without ever materializing the trace.
	// Requires Sink.
	SinkOnly bool
}

// DefaultRingEvents is the ring capacity when Config.RingEvents is zero.
const DefaultRingEvents = 4096

// On returns a Config with capture enabled and default buffering.
func On() Config { return Config{Enabled: true} }

// ringEvents resolves the configured capacity.
func (c Config) ringEvents() int {
	if c.RingEvents > 0 {
		return c.RingEvents
	}
	return DefaultRingEvents
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RingEvents < 0 {
		return fmt.Errorf("trace: RingEvents must be >= 0, got %d", c.RingEvents)
	}
	if c.SinkOnly && c.Sink == nil {
		return fmt.Errorf("trace: SinkOnly requires a Sink")
	}
	if c.SinkOnly && c.FlightRecorder {
		return fmt.Errorf("trace: SinkOnly and FlightRecorder are mutually exclusive")
	}
	return nil
}

// Sink receives events as the processors emit them. A nil Sink check is the
// only per-event cost when tracing is off.
type Sink interface {
	Emit(Event)
}

// TeeSink fans one event stream out to two sinks in emission order — the
// byte recorder and a live streaming checker, typically.
type TeeSink struct{ A, B Sink }

// Emit implements Sink.
func (t TeeSink) Emit(ev Event) {
	t.A.Emit(ev)
	t.B.Emit(ev)
}
