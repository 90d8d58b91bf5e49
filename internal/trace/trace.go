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
	// exposed before it may reappear. Val is the cycle of the checkpoint
	// restored.
	EvRecover Kind = 3
	// EvCheckpoint marks a SafetyNet checkpoint taken at Time; Seq is its
	// sequence number.
	EvCheckpoint Kind = 4
	// EvViolation marks an online checker's violation: Node detected it
	// at Time, Seq is its core.ViolationKind and Addr the block it names.
	EvViolation Kind = 5
	// EvFault closes an injected fault's record at Time, once per
	// injection run: Node is its target, Seq its fault kind, Val the
	// cycle it was armed, Val2 the cycle it fired (0 if it never did),
	// and Mask its outcome — 0 not applied, 1 detected, 2 masked,
	// 3 escape.
	EvFault Kind = 6
)

// The kinds from EvCheckpoint on are annotations: they explain a run to
// its reader, and the oracles skip them before they count an event.

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EvCommit:
		return "commit"
	case EvPerform:
		return "perform"
	case EvRecover:
		return "recover"
	case EvCheckpoint:
		return "checkpoint"
	case EvViolation:
		return "violation"
	case EvFault:
		return "fault"
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
// the atomic load half observed. A recovery marker and the annotation
// kinds use the fields their Kind constants name.
type Event struct {
	Kind  Kind
	Node  uint8
	Class consistency.OpClass    // Load, Store, or Membar (0 for the other kinds)
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

// String implements fmt.Stringer for debugging.
func (e Event) String() string {
	switch e.Kind {
	case EvRecover:
		return fmt.Sprintf("t=%d n%d recover to checkpoint @%d", e.Time, e.Node, uint64(e.Val))
	case EvCheckpoint:
		return fmt.Sprintf("t=%d checkpoint seq=%d", e.Time, e.Seq)
	case EvViolation:
		return fmt.Sprintf("t=%d n%d violation kind=%d block=%#x", e.Time, e.Node, e.Seq, uint64(e.Addr))
	case EvFault:
		return fmt.Sprintf("t=%d n%d fault kind=%d armed=%d fired=%d outcome=%d",
			e.Time, e.Node, e.Seq, uint64(e.Val), uint64(e.Val2), uint8(e.Mask))
	case EvCommit, EvPerform:
	}
	switch {
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
}

// Config controls trace capture on a System.
type Config struct {
	// Enabled keeps the trace bytes: the system records every event for
	// TraceBytes.
	Enabled bool
}

// DefaultRingEvents is the recorder's ring capacity. The ring is a
// batching buffer: when full it is encoded and drained, so the whole run
// is captured.
const DefaultRingEvents = 4096

// On returns a Config with capture enabled.
func On() Config { return Config{Enabled: true} }

// Sink receives events as the processors emit them. A nil Sink check is the
// only per-event cost when tracing is off.
type Sink interface {
	Emit(Event)
}

// TeeSink fans one event stream out to two sinks in emission order: a
// judged run's byte recorder and its live stream checker.
type TeeSink struct{ A, B Sink }

// Emit implements Sink.
func (t TeeSink) Emit(ev Event) {
	t.A.Emit(ev)
	t.B.Emit(ev)
}
