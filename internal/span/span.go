// Package span is the simulator's deterministic causal flight recorder:
// an allocation-free, ring-buffered span store clocked by the event
// kernel. Its one span family, FamilyTxn, connects cause to effect
// across the system: one span per coherence transaction, keyed by
// (requestor node, block address), with a child event for every protocol
// message hop observed on the interconnect — the request→forward→ack→
// grant chain the protocol tables imply but the statistics counters
// cannot show.
//
// Two things that are not span families sit beside the spans in
// dvmc-stat timeline: where simulated work went over time (the telemetry
// snapshot's tracked series, drawn as counter tracks), and an injected
// fault's life from arming to verdict (the execution trace's fault,
// violation, checkpoint and recovery records, drawn as the fault track).
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

// Family partitions spans into the instrumented subsystem views.
type Family uint8

// The span families. Values start at 1: 0x00 is the codec's footer
// sentinel, so a family byte is never zero. 2 and 3 are reserved: older
// dumps used them for the fault flight record and for per-component
// phase slices, and the decoder refuses both.
const (
	// FamilyTxn spans one coherence transaction (directory or snooping).
	FamilyTxn Family = 1
)

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
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Label names a child event within a span: a protocol message hop.
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

	// LabelWork is written by no product recorder and refused by
	// Decode. It stays defined only because benchmark/layers.go drives
	// the recorder with it.
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

// Event is one child event inside a span: a protocol hop, with its
// source and destination node in the payload words A and B.
type Event struct {
	Label Label
	Time  sim.Cycle
	A, B  uint64
}

// Span is one causal interval. Node is -1 for spans not owned by a
// node. Dropped counts child events that arrived after the span's event
// storage filled.
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

// Name renders the span's display name: its request and block.
func (s *Span) Name() string {
	if s.Kind == TxnWrite {
		return fmt.Sprintf("GetM 0x%x", s.Addr)
	}
	return fmt.Sprintf("GetS 0x%x", s.Addr)
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
