package core

import (
	"fmt"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// ViolationKind classifies what a DVMC checker detected.
type ViolationKind uint8

// Violation kinds, one per checked invariant (plus the lost-operation
// check that backs Allowable Reordering).
const (
	// UOMismatch: a replayed load's value differed from the original
	// execution (Uniprocessor Ordering, Section 4.1). Resolved by a
	// pipeline flush; benign occurrences are load-order mis-speculation,
	// so no checker reports one. It labels an injected fault the replay
	// caught (the injection harness and telemetry set it).
	UOMismatch ViolationKind = iota + 1
	// UOStoreMismatch: at VC deallocation the value written to the cache
	// differed from the verification cache's entry.
	UOStoreMismatch
	// ReorderViolation: an operation performed although a younger
	// operation of an ordered class had already performed (Section 4.2).
	ReorderViolation
	// LostOperation: an operation committed but never performed, caught
	// by comparing committed/performed counters at a membar.
	LostOperation
	// OperationTimeout: an operation (or the write buffer) made no
	// progress for the watchdog period — a lost protocol message hangs
	// the pipeline. Unlike LostOperation, no wrong architectural state
	// was produced before detection: recovery to any live checkpoint
	// heals it, because protocol state resets entirely.
	OperationTimeout
	// EpochAccessViolation: a load or store performed outside an
	// appropriate epoch (coherence rule 1).
	EpochAccessViolation
	// EpochOverlap: a Read-Write epoch overlapped another epoch
	// (coherence rule 2 / SWMR).
	EpochOverlap
	// DataPropagation: the data at the beginning of an epoch did not
	// match the data at the end of the most recent Read-Write epoch
	// (coherence rule 3).
	DataPropagation
	// CETStateViolation: the cache epoch table saw an inconsistent
	// transition (epoch ends with none open, double begin, ...).
	CETStateViolation
	// ECCCorrected: line ECC corrected an upset bit on first use. No
	// checker raises it; an injection run reports it as its detection.
	ECCCorrected
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case UOMismatch:
		return "uniprocessor-ordering-load-mismatch"
	case UOStoreMismatch:
		return "uniprocessor-ordering-store-mismatch"
	case ReorderViolation:
		return "allowable-reordering-violation"
	case LostOperation:
		return "lost-operation"
	case OperationTimeout:
		return "operation-timeout"
	case EpochAccessViolation:
		return "epoch-access-violation"
	case EpochOverlap:
		return "epoch-overlap"
	case DataPropagation:
		return "data-propagation-mismatch"
	case CETStateViolation:
		return "cet-state-violation"
	case ECCCorrected:
		return "ecc-corrected"
	default:
		return fmt.Sprintf("ViolationKind(%d)", uint8(k))
	}
}

// Violation is one detected error.
type Violation struct {
	Kind   ViolationKind
	Node   network.NodeID
	Block  mem.BlockAddr
	Cycle  sim.Cycle
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d node %d block %#x: %v (%s)", v.Cycle, v.Node, v.Block, v.Kind, v.Detail)
}

// Sink receives detected violations. The system's recovery controller and
// the fault-injection campaign implement it.
type Sink interface {
	Violation(v Violation)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Violation)

// Violation implements Sink.
func (f SinkFunc) Violation(v Violation) { f(v) }

// CollectorSink records violations for later inspection (tests, the
// injection campaign, and the CLI tools).
type CollectorSink struct {
	Violations []Violation
}

var _ Sink = (*CollectorSink)(nil)

// Violation implements Sink.
func (c *CollectorSink) Violation(v Violation) { c.Violations = append(c.Violations, v) }

// First returns the first recorded violation, if any.
func (c *CollectorSink) First() (Violation, bool) {
	if len(c.Violations) == 0 {
		return Violation{}, false
	}
	return c.Violations[0], true
}

// Count returns the number of recorded violations.
func (c *CollectorSink) Count() int { return len(c.Violations) }
