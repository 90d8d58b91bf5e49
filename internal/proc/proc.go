// Package proc models the out-of-order processor core of the evaluated
// system (paper Table 7): a 4-wide pipeline with a 128-entry reorder
// buffer, a 64-entry scheduling window, a 32-entry write buffer, load
// forwarding and load-order speculation, and per-model optimizations
// (Table 5): an in-order write buffer for TSO, an out-of-order
// write-combining buffer for PSO/RMO, and non-speculative out-of-order
// load execution for RMO.
//
// When DVMC is enabled the pipeline grows the verification stage of
// Section 4.1 before retirement: operations replay in program order
// against the Uniprocessor Ordering checker's verification cache, and
// perform events feed the Allowable Reordering checker. The stage extends
// instruction lifetime and ROB occupancy — the dominant source of DVMC's
// slowdown in the paper's evaluation.
package proc

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// OpKind is the kind of a program memory operation.
type OpKind uint8

// Operation kinds.
const (
	OpLoad OpKind = iota + 1
	OpStore
	OpRMW    // atomic read-modify-write (SPARC swap/cas/ldstub)
	OpMembar // memory barrier with a 4-bit mask; Stbar = mask #SS
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpRMW:
		return "rmw"
	case OpMembar:
		return "membar"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Class maps the op kind to its ordering-table class.
func (k OpKind) Class() consistency.OpClass {
	switch k {
	case OpLoad:
		return consistency.Load
	case OpStore, OpRMW:
		return consistency.Store
	case OpMembar:
		return consistency.Membar
	default:
		panic("proc: Class of invalid OpKind")
	}
}

// Op is one memory operation of a program, in program order.
type Op struct {
	Addr mem.Addr
	Data mem.Word                // store value
	RMW  func(mem.Word) mem.Word // RMW transform (nil for plain ops)

	// Gap is the number of non-memory instructions preceding this op;
	// they consume front-end and reorder-buffer bandwidth.
	Gap int

	Kind OpKind
	Mask consistency.MembarMask // membars only

	// Bits32 marks 32-bit SPARC v8 code, which was written for TSO: a
	// system configured for PSO or RMO must treat the op under TSO
	// (paper Table 8).
	Bits32 bool

	// Blocking marks an op whose value feeds an unpredictable branch
	// (e.g. a spinlock test): the front end cannot fetch past it until
	// the value is available.
	Blocking bool

	// EndTxn marks the completion of one workload transaction, counted
	// at retirement.
	EndTxn bool
}

// Result carries the value of the previous Blocking operation into
// Program.Next.
type Result struct {
	Valid bool
	Value mem.Word
}

// Program is a per-thread memory-operation stream. Implementations must
// be deterministic state machines supporting snapshot/restore, because
// the processor fetches speculatively and rewinds on squashes, and the
// backward-error-recovery mechanism restores older checkpoints.
type Program interface {
	// Next returns the operation following the current position. If the
	// previous operation was Blocking, prev carries its value. ok=false
	// ends the thread.
	Next(prev Result) (op Op, ok bool)
	// Snapshot captures the generator state before the next Next call.
	// The processor takes one per fetched op, so a program whose state is
	// more than a word should not box a fresh copy each time: into is nil
	// or a value an earlier Snapshot of this program returned and the
	// caller is done with, which may be overwritten and returned.
	Snapshot(into any) any
	// Restore rewinds to a previously captured state. It must not keep s:
	// the caller may hand it back to Snapshot.
	Restore(s any)
}

// The core parameters of paper Table 7 that no evaluation varies.
const (
	width         = 4  // fetch/commit/verify width
	window        = 64 // scheduling window: oldest unexecuted ops considered
	wbOutstand    = 8  // out-of-order write buffer: concurrent drains
	squashPenalty = 10 // front-end refill delay (cycles) after a pipeline flush
)

// Config sizes the core (defaults mirror paper Table 7).
type Config struct {
	ROBInstrs int // reorder buffer capacity in instructions (128)
	WBEntries int // write buffer capacity in stores (32)
	VCWords   int // verification cache capacity in words

	// MembarInjectionInterval is the period (cycles) of artificial full
	// membars for lost-operation detection (about one per 100k cycles).
	// Zero disables injection.
	MembarInjectionInterval sim.Cycle
}

// DefaultConfig returns the paper's processor parameters.
func DefaultConfig() Config {
	return Config{
		ROBInstrs:               128,
		WBEntries:               32,
		VCWords:                 64,
		MembarInjectionInterval: 100000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ROBInstrs < 1:
		return fmt.Errorf("proc: ROBInstrs = %d", c.ROBInstrs)
	case c.WBEntries < 0:
		return fmt.Errorf("proc: WBEntries = %d", c.WBEntries)
	case c.VCWords < 1:
		return fmt.Errorf("proc: VCWords = %d", c.VCWords)
	}
	return nil
}

// Stats counts core activity.
type Stats struct {
	OpsRetired      uint64
	InstrsRetired   uint64 // including gap instructions
	LoadsExecuted   uint64
	StoresRetired   uint64
	MembarsRetired  uint64
	Transactions    uint64
	SpecSquashes    uint64 // load-order mis-speculation flushes
	VerifySquashes  uint64 // UO replay mismatch flushes
	WBFullStalls    uint64
	VCFullStalls    uint64
	MembarStalls    uint64
	InjectedMembars uint64
	ForwardedLoads  uint64
}
