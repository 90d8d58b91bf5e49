package dvmc

import (
	"dvmc/internal/consistency"
	"dvmc/internal/core"
)

// PerformEvent is one memory operation in a litmus-style trace: its rank
// in program order (Seq) and its class. Events are fed to
// VerifyPerformOrder in the order they performed.
type PerformEvent struct {
	Seq    uint64
	Class  OpClass
	Mask   MembarMask // membars only
	IsRMW  bool
	Bits32 bool // forces TSO on PSO/RMO systems (Table 8)
}

// OpClass re-exports the ordering-table operation classes.
type OpClass = consistency.OpClass

// MembarMask re-exports the SPARC membar mask type.
type MembarMask = consistency.MembarMask

// Operation classes and membar mask bits for litmus traces.
const (
	LoadOp   = consistency.Load
	StoreOp  = consistency.Store
	MembarOp = consistency.Membar

	MaskLL   = consistency.LL
	MaskLS   = consistency.LS
	MaskSL   = consistency.SL
	MaskSS   = consistency.SS
	MaskFull = consistency.FullMask
)

// VerifyPerformOrder runs the paper's Allowable Reordering checker
// (Section 4.2) over a hand-written perform-order trace under the given
// consistency model, returning every violation. It answers litmus-test
// questions — "may a load perform before an older store under TSO?" —
// directly against the ordering tables of Tables 2–4.
func VerifyPerformOrder(model Model, events []PerformEvent) []Violation {
	var sink core.CollectorSink
	r := core.NewReorderChecker(0, &sink)
	for i, e := range events {
		m := model
		if e.Bits32 && (model == PSO || model == RMO) {
			m = TSO
		}
		r.OpPerformed(core.PerformedOp{
			Seq:   e.Seq,
			Class: e.Class,
			Mask:  e.Mask,
			IsRMW: e.IsRMW,
			Model: m,
		}, 0)
		_ = i
	}
	return sink.Violations
}

// OrderingRequired reports whether the model's ordering table requires a
// first operation (with optional membar mask) to perform before a second
// one — a direct public view onto the paper's Tables 1–4.
func OrderingRequired(model Model, first, second OpClass, firstMask, secondMask MembarMask) bool {
	t := consistency.TableFor(model)
	return t.Ordered(consistency.Op{Class: first, Mask: firstMask},
		consistency.Op{Class: second, Mask: secondMask})
}
