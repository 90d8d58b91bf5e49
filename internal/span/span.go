// Package span is the simulator's deterministic causal flight recorder:
// an allocation-free, ring-buffered span store clocked by the event
// kernel. Three span families connect cause to effect across the system:
//
//   - FamilyTxn: one span per coherence transaction, keyed by
//     (requestor node, block address), with a child event for every
//     protocol message hop observed on the interconnect — the
//     request→forward→ack→grant chain the protocol tables imply but the
//     statistics counters cannot show.
//   - FamilyFault: a single flight record for an injected fault, opened
//     at arming and annotated with fire, checkpoint, recovery, and
//     violation transitions until the run's verdict closes it — the
//     inject→detect chain, hop by hop.
//   - FamilyPhase: per-component cycle attribution (processor,
//     coherence, network, checker) sampled on a fixed period, so a
//     timeline shows where simulated work actually went.
//
// Determinism is a first-class property, exactly as in internal/trace:
// spans are stamped with kernel cycles (never wall clocks), the dump is
// sorted by (start, id), and the binary encoding is CRC-footed — a span
// dump is a pure function of (Config, Workload, Seed) and is pinned
// byte-for-byte across seeds × protocols × worker counts. The package
// lives inside the dvmc-lint determinism allowlist; the recording hot
// paths are allocation-free at steady state (slots, rings, and event
// storage are preallocated; the open-transaction map only ever inserts
// and deletes, which Go maps serve without allocating once warm).
package span

import (
	"fmt"

	"dvmc/internal/sim"
)

// Family partitions spans into the three instrumented subsystem views.
type Family uint8

// The span families. Values start at 1: 0x00 is the codec's footer
// sentinel, so a family byte is never zero.
const (
	// FamilyTxn spans one coherence transaction (directory or snooping).
	FamilyTxn Family = 1
	// FamilyFault spans an injected fault from arming to verdict.
	FamilyFault Family = 2
	// FamilyPhase spans a fixed-period per-component work slice.
	FamilyPhase Family = 3
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyTxn:
		return "txn"
	case FamilyFault:
		return "fault"
	case FamilyPhase:
		return "phase"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// Outcome records how a span closed.
type Outcome uint8

// Span outcomes. OutcomeOpen is the zero value: a span still in flight
// (or one the run ended before closing — Drain stamps its end cycle but
// keeps the open outcome, which is itself diagnostic).
const (
	OutcomeOpen Outcome = iota
	// OutcomeDone: the transaction retired normally.
	OutcomeDone
	// OutcomeUpgraded: a read transaction was upgraded in place to a
	// write (the S→M race); a fresh span continues the write.
	OutcomeUpgraded
	// OutcomeAborted: closed by rollback/recovery or displaced by a new
	// transaction on the same (node, block) key.
	OutcomeAborted
	// OutcomeDetected: the fault was caught by a checker.
	OutcomeDetected
	// OutcomeMasked: the fault provably had no architectural effect.
	OutcomeMasked
	// OutcomeEscape: the fault took effect and no checker fired.
	OutcomeEscape
	// OutcomeNotApplied: the fault found no target.
	OutcomeNotApplied
	// OutcomeSlice: a phase-profiling sample slice (always closed).
	OutcomeSlice
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOpen:
		return "open"
	case OutcomeDone:
		return "done"
	case OutcomeUpgraded:
		return "upgraded"
	case OutcomeAborted:
		return "aborted"
	case OutcomeDetected:
		return "detected"
	case OutcomeMasked:
		return "masked"
	case OutcomeEscape:
		return "escape"
	case OutcomeNotApplied:
		return "not-applied"
	case OutcomeSlice:
		return "slice"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Label names a child event within a span: a protocol message hop, a
// fault lifecycle transition, or a phase work sample.
type Label uint8

// Child-event labels.
const (
	LabelNone Label = iota

	// Directory-protocol hops.
	LabelGetS
	LabelGetM
	LabelPutS
	LabelPutM
	LabelData
	LabelPermM
	LabelInv
	LabelInvAck
	LabelRecall
	LabelRecallAck
	LabelWBAck
	LabelUnblock

	// Snooping-protocol hops.
	LabelSnoop
	LabelSnoopData
	LabelSnoopWB

	// Fault-flight transitions.
	LabelArmed
	LabelFired
	LabelViolation
	LabelCheckpoint
	LabelRecovery

	// Phase work sample (A = work units in the slice).
	LabelWork
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case LabelGetS:
		return "GetS"
	case LabelGetM:
		return "GetM"
	case LabelPutS:
		return "PutS"
	case LabelPutM:
		return "PutM"
	case LabelData:
		return "Data"
	case LabelPermM:
		return "PermM"
	case LabelInv:
		return "Inv"
	case LabelInvAck:
		return "InvAck"
	case LabelRecall:
		return "Recall"
	case LabelRecallAck:
		return "RecallAck"
	case LabelWBAck:
		return "WBAck"
	case LabelUnblock:
		return "Unblock"
	case LabelSnoop:
		return "Snoop"
	case LabelSnoopData:
		return "SnoopData"
	case LabelSnoopWB:
		return "SnoopWB"
	case LabelArmed:
		return "armed"
	case LabelFired:
		return "fired"
	case LabelViolation:
		return "violation"
	case LabelCheckpoint:
		return "checkpoint"
	case LabelRecovery:
		return "recovery"
	case LabelWork:
		return "work"
	default:
		return fmt.Sprintf("Label(%d)", uint8(l))
	}
}

// Transaction kinds (Span.Kind for FamilyTxn).
const (
	// TxnRead is a read-permission transaction (GetS).
	TxnRead uint8 = 0
	// TxnWrite is a write-permission transaction (GetM).
	TxnWrite uint8 = 1
)

// TxnKindName names a FamilyTxn span kind.
func TxnKindName(kind uint8) string {
	if kind == TxnWrite {
		return "GetM"
	}
	return "GetS"
}

// Phase components (Span.Kind for FamilyPhase).
const (
	CompProc      uint8 = 0
	CompCoherence uint8 = 1
	CompNetwork   uint8 = 2
	CompChecker   uint8 = 3
)

// CompName names a FamilyPhase span kind.
func CompName(comp uint8) string {
	switch comp {
	case CompProc:
		return "proc"
	case CompCoherence:
		return "coherence"
	case CompNetwork:
		return "network"
	case CompChecker:
		return "checker"
	default:
		return fmt.Sprintf("comp%d", comp)
	}
}

// Event is one child event inside a span. The payload words A and B are
// label-defined: for protocol hops, source and destination node; for
// fault transitions, kind-specific detail (e.g. checkpoint sequence).
type Event struct {
	Label Label
	Time  sim.Cycle
	A, B  uint64
}

// Span is one causal interval. Node is -1 for spans not owned by a
// node (phase slices). Dropped counts child events that arrived after
// the span's event storage filled.
type Span struct {
	ID      uint64
	Family  Family
	Kind    uint8
	Node    int32
	Addr    uint64
	Start   sim.Cycle
	End     sim.Cycle
	Outcome Outcome
	Dropped uint16
	Events  []Event
}

// Name renders the span's default display name.
func (s *Span) Name() string {
	switch s.Family {
	case FamilyTxn:
		return fmt.Sprintf("%s 0x%x", TxnKindName(s.Kind), s.Addr)
	case FamilyFault:
		return fmt.Sprintf("fault kind=%d", s.Kind)
	case FamilyPhase:
		return CompName(s.Kind)
	default:
		return s.Family.String()
	}
}

// The recorder's sizes.
const (
	// DefaultCap is the retained-span capacity: a flight recorder that
	// keeps the newest spans once full, evicting the oldest closed span
	// to admit a new one; evictions are counted.
	DefaultCap = 4096
	// DefaultEventCap bounds child events per span; further events are
	// counted on the span but not stored. The deepest normal directory
	// chain (GetM with a recall plus invalidations on every other node
	// of an 8-node system) stays well under it.
	DefaultEventCap = 24
	// DefaultPhaseEvery is the phase-profiling sample period in cycles
	// (a power of two, like telemetry.DefaultEvery, so the per-cycle
	// modulo is cheap).
	DefaultPhaseEvery sim.Cycle = 1024
)

// Config enables the span recorder for one System.
type Config struct {
	// Enabled turns on span recording. Off, the system installs no
	// taps at all: the only residual cost is a nil-check on the network
	// delivery path.
	Enabled bool
}

// On returns an enabled configuration.
func On() Config { return Config{Enabled: true} }
