// Package workload provides deterministic multithreaded memory-operation
// generators standing in for the Wisconsin Commercial Workload suite the
// paper evaluates (Table 8):
//
//	apache    — static web serving: read-mostly shared file cache, a
//	            contended hit-counter lock, private log writes
//	oltp      — database transactions: per-row locks, row read/modify/
//	            write, index lookups
//	jbb       — middleware object churn: warehouse-partitioned data with
//	            little sharing, occasional global counters
//	slashcode — dynamic web serving with few, hot locks: high contention
//	            and high runtime variance
//	barnes    — SPLASH-2 N-body: phases of read-shared tree walks,
//	            private force computation, barrier synchronisation
//
// The real suite runs on Simics with Solaris; none of that exists in Go.
// The generators reproduce the *memory-system character* the paper's
// results depend on: footprints, sharing patterns, lock contention,
// read/write mix, compute gaps between memory operations, and the
// fraction of 32-bit (TSO-forced) operations per workload (Table 8).
//
// Synchronisation is emitted for the system's consistency model the way
// a per-model compilation would: PSO code places Stbar before lock
// releases; RMO code brackets critical sections with acquire and release
// membars. TSO and SC need no explicit barriers for lock-based code,
// which is why the paper finds relaxed models can run slower than TSO —
// they must pay for their membars.
//
// Each generator is a small deterministic state machine implementing
// proc.Program, supporting snapshot/restore for pipeline squashes and
// SafetyNet recovery.
package workload

import (
	"fmt"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/proc"
	"dvmc/internal/sim"
)

// Address-space layout: regions are block-aligned and non-overlapping.
const (
	sharedBase  mem.Addr = 0x0000_0000
	lockBase    mem.Addr = 0x1000_0000
	barrierBase mem.Addr = 0x1800_0000
	privateBase mem.Addr = 0x2000_0000
	privateSize mem.Addr = 0x0100_0000 // per-thread private region stride
)

// Params shapes a generator. Zero values are invalid; use a workload
// constructor or fill every field.
type Params struct {
	// SharedBlocks is the footprint of the shared data region, in
	// 64-byte blocks.
	SharedBlocks int
	// PrivateBlocks is the per-thread private footprint, in blocks.
	PrivateBlocks int
	// PrivateFrac is the fraction of body accesses going to private data.
	PrivateFrac float64
	// Locks is the number of lock words.
	Locks int
	// ReadFrac is the fraction of data accesses that are loads.
	ReadFrac float64
	// GapMean is the average number of non-memory instructions between
	// memory operations.
	GapMean int
	// Bits32Frac is the fraction of operations from 32-bit (TSO-forced)
	// code regions (paper Table 8; values assumed, see DESIGN.md).
	Bits32Frac float64
	// OpsPerTxn is the number of data accesses per transaction.
	OpsPerTxn int
	// LockedFrac is the fraction of transactions that take a lock.
	LockedFrac float64
	// HotLockFrac is the fraction of lock acquisitions that hit lock 0
	// (contention skew; slashcode sets this high).
	HotLockFrac float64
	// SpinGap is the compute gap inside a spin iteration.
	SpinGap int
	// TxnFocusBlocks is how many shared blocks a transaction concentrates
	// on (the rows/objects it operates on); most shared accesses hit the
	// focus set, giving transactions the temporal locality real row- and
	// object-oriented processing has. Zero disables focusing.
	TxnFocusBlocks int
	// IndexFrac is the fraction of shared accesses that bypass the focus
	// set (index lookups, scans).
	IndexFrac float64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.SharedBlocks < 1 || p.PrivateBlocks < 1:
		return fmt.Errorf("workload: footprints %d/%d", p.SharedBlocks, p.PrivateBlocks)
	case p.Locks < 1:
		return fmt.Errorf("workload: Locks = %d", p.Locks)
	case p.OpsPerTxn < 1:
		return fmt.Errorf("workload: OpsPerTxn = %d", p.OpsPerTxn)
	case p.ReadFrac < 0 || p.ReadFrac > 1:
		return fmt.Errorf("workload: ReadFrac = %v", p.ReadFrac)
	case p.PrivateFrac < 0 || p.PrivateFrac > 1:
		return fmt.Errorf("workload: PrivateFrac = %v", p.PrivateFrac)
	}
	return nil
}

// Spec names a workload and builds per-thread programs.
type Spec struct {
	Name    string
	Params  Params
	Threads int // total threads (one per node); barnes barriers need it
	// Model is the consistency model the workload is "compiled" for;
	// it controls which membars the generator emits.
	Model consistency.Model
	// Build, when non-nil, constructs each thread's program directly and
	// overrides the statistical generators: Params are then ignored (and
	// need not validate). This is the programmatic-construction hook used
	// by dvmc-fuzz, whose randomized litmus programs are explicit op lists
	// rather than parameterized state machines. Implementations must be
	// deterministic in (thread, seed) and honour proc.Program's
	// snapshot/restore contract.
	Build func(thread int, seed uint64) proc.Program
	// barnes switches to the phase-structured N-body generator.
	barnes bool
}

// Custom wraps an explicit per-thread program builder as a Spec, so
// programmatically constructed programs (randomized litmus tests, hand-
// written reproducers) plug into NewSystem/RunInjection unchanged.
func Custom(name string, build func(thread int, seed uint64) proc.Program) Spec {
	return Spec{Name: name, Build: build}
}

// Validate reports spec errors: custom-built specs need only a builder,
// generator-backed specs need valid Params.
func (s Spec) Validate() error {
	if s.Build != nil {
		return nil
	}
	return s.Params.Validate()
}

// WithModel returns a copy of the spec targeting the given model.
func (s Spec) WithModel(m consistency.Model) Spec {
	s.Model = m
	return s
}

// WithThreads returns a copy of the spec for the given thread count.
func (s Spec) WithThreads(n int) Spec {
	s.Threads = n
	return s
}

// NewProgram builds the program for one thread. Two threads with the
// same seed and different ids produce uncorrelated streams.
func (s Spec) NewProgram(thread int, seed uint64) proc.Program {
	if s.Build != nil {
		return s.Build(thread, seed)
	}
	if err := s.Params.Validate(); err != nil {
		panic(err)
	}
	base := sim.NewRand(seed)
	if s.barnes {
		g := &barnesGen{spec: s, thread: thread}
		g.state.Rng = *base.Fork(uint64(thread) + 1)
		g.state.Phase = bpRead
		return g
	}
	g := &generator{spec: s, thread: thread}
	g.state.Rng = *base.Fork(uint64(thread) + 1)
	g.state.Phase = phaseStartTxn
	return g
}

// releaseMask returns the membar mask a lock release needs under the
// target model (0: none).
func (s Spec) releaseMask() consistency.MembarMask {
	switch s.Model {
	case consistency.PSO:
		return consistency.SS // Stbar
	case consistency.RMO:
		return consistency.LS | consistency.SS
	default:
		return 0
	}
}

// acquireMask returns the membar mask a lock acquire needs.
func (s Spec) acquireMask() consistency.MembarMask {
	if s.Model == consistency.RMO {
		return consistency.LL | consistency.LS
	}
	return 0
}

// lockAddr returns the word address of lock i.
func lockAddr(i int) mem.Addr { return lockBase + mem.Addr(i)*mem.BlockBytes }

// barrierAddr returns the address of the global barrier counter.
func barrierAddr() mem.Addr { return barrierBase }

// sharedAddr returns a word address inside shared block i.
func sharedAddr(block, word int) mem.Addr {
	return sharedBase + mem.Addr(block)*mem.BlockBytes + mem.Addr(word)*mem.WordBytes
}

// privateAddr returns a word address in a thread's private region.
func privateAddr(thread, block, word int) mem.Addr {
	return privateBase + mem.Addr(thread)*privateSize +
		mem.Addr(block)*mem.BlockBytes + mem.Addr(word)*mem.WordBytes
}

// generator phases.
type phase uint8

const (
	phaseStartTxn phase = iota + 1
	phaseLockTry
	phaseLockSpin
	phaseAcquired
	phaseBody
	phaseReleaseMembar
	phaseUnlock
)

// genState is the snapshotable generator state: a plain value copied by
// Snapshot/Restore, into and out of a *genState the caller recycles.
type genState struct {
	Rng      sim.Rand
	Phase    phase
	Lock     int // lock index held/waited for (-1: none)
	BodyLeft int // data accesses remaining in the body
	Focus    [4]int
	NFocus   int
	Txns     uint64
}

type generator struct {
	spec   Spec
	thread int
	state  genState
}

var _ proc.Program = (*generator)(nil)

// Snapshot implements proc.Program.
func (g *generator) Snapshot(into any) any {
	p, ok := into.(*genState)
	if !ok {
		p = new(genState)
	}
	*p = g.state
	return p
}

// Restore implements proc.Program.
func (g *generator) Restore(s any) { g.state = *s.(*genState) }

// Next implements proc.Program.
func (g *generator) Next(prev proc.Result) (proc.Op, bool) {
	p := g.spec.Params
	st := &g.state
	for {
		switch st.Phase {
		case phaseStartTxn:
			st.BodyLeft = p.OpsPerTxn
			st.NFocus = p.TxnFocusBlocks
			if st.NFocus > len(st.Focus) {
				st.NFocus = len(st.Focus)
			}
			for i := 0; i < st.NFocus; i++ {
				st.Focus[i] = st.Rng.Intn(p.SharedBlocks)
			}
			if p.LockedFrac > 0 && st.Rng.Bool(p.LockedFrac) {
				if p.HotLockFrac > 0 && st.Rng.Bool(p.HotLockFrac) {
					st.Lock = 0
				} else {
					st.Lock = st.Rng.Intn(p.Locks)
				}
				st.Phase = phaseLockTry
				return g.lockTryOp(), true
			}
			st.Lock = -1
			st.Phase = phaseBody

		case phaseLockTry:
			// prev is the swap result: 0 means we took the lock.
			if !prev.Valid {
				panic("workload: lock RMW result missing")
			}
			if prev.Value == 0 {
				st.Phase = phaseAcquired
				continue
			}
			st.Phase = phaseLockSpin
			return g.lockSpinOp(), true

		case phaseLockSpin:
			if !prev.Valid {
				panic("workload: spin load result missing")
			}
			if prev.Value == 0 {
				st.Phase = phaseLockTry
				return g.lockTryOp(), true
			}
			return g.lockSpinOp(), true

		case phaseAcquired:
			st.Phase = phaseBody
			if m := g.spec.acquireMask(); m != 0 {
				return proc.Op{Kind: proc.OpMembar, Mask: m}, true
			}

		case phaseBody:
			if st.BodyLeft == 0 {
				if st.Lock >= 0 {
					st.Phase = phaseReleaseMembar
					continue
				}
				st.Phase = phaseStartTxn
				st.Txns++
				return g.endTxnOp(), true
			}
			st.BodyLeft--
			return g.bodyOp(), true

		case phaseReleaseMembar:
			st.Phase = phaseUnlock
			if m := g.spec.releaseMask(); m != 0 {
				return proc.Op{Kind: proc.OpMembar, Mask: m}, true
			}

		case phaseUnlock:
			lock := st.Lock
			st.Lock = -1
			st.Phase = phaseStartTxn
			st.Txns++
			return proc.Op{
				Kind:   proc.OpStore,
				Addr:   lockAddr(lock),
				Data:   0,
				Gap:    g.gap(),
				EndTxn: true,
			}, true

		default:
			panic(fmt.Sprintf("workload: bad phase %d", st.Phase))
		}
	}
}

// lockTryOp is an atomic test-and-set (swap 1).
func (g *generator) lockTryOp() proc.Op {
	return proc.Op{
		Kind:     proc.OpRMW,
		Addr:     lockAddr(g.state.Lock),
		RMW:      setOne,
		Gap:      g.gap(),
		Blocking: true,
		Bits32:   g.sample32(),
	}
}

// setOne is the test-and-set transform.
func setOne(mem.Word) mem.Word { return 1 }

// lockSpinOp reads the lock word, waiting for release.
func (g *generator) lockSpinOp() proc.Op {
	return proc.Op{
		Kind:     proc.OpLoad,
		Addr:     lockAddr(g.state.Lock),
		Gap:      g.spec.Params.SpinGap,
		Blocking: true,
		Bits32:   g.sample32(),
	}
}

// bodyOp is one data access of the transaction body.
func (g *generator) bodyOp() proc.Op {
	p := g.spec.Params
	st := &g.state
	var addr mem.Addr
	if st.Rng.Bool(p.PrivateFrac) {
		addr = privateAddr(g.thread, st.Rng.Intn(p.PrivateBlocks), st.Rng.Intn(mem.WordsPerBlock))
	} else {
		block := st.Rng.Intn(p.SharedBlocks)
		if st.NFocus > 0 && !st.Rng.Bool(p.IndexFrac) {
			block = st.Focus[st.Rng.Intn(st.NFocus)]
		}
		addr = sharedAddr(block, st.Rng.Intn(mem.WordsPerBlock))
	}
	op := proc.Op{Addr: addr, Gap: g.gap(), Bits32: g.sample32()}
	if st.Rng.Bool(p.ReadFrac) {
		op.Kind = proc.OpLoad
	} else {
		op.Kind = proc.OpStore
		op.Data = mem.Word(st.Rng.Uint64())
	}
	return op
}

// endTxnOp marks a lockless transaction boundary with a private store.
func (g *generator) endTxnOp() proc.Op {
	return proc.Op{
		Kind:   proc.OpStore,
		Addr:   privateAddr(g.thread, 0, 0),
		Data:   mem.Word(g.state.Txns),
		Gap:    g.gap(),
		EndTxn: true,
	}
}

// gap samples a compute gap around GapMean.
func (g *generator) gap() int {
	m := g.spec.Params.GapMean
	if m <= 0 {
		return 0
	}
	return g.state.Rng.Intn(2*m + 1)
}

// sample32 samples the 32-bit-code indicator.
func (g *generator) sample32() bool {
	f := g.spec.Params.Bits32Frac
	return f > 0 && g.state.Rng.Bool(f)
}
