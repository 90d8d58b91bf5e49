package workload

import (
	"fmt"

	"dvmc/internal/mem"
	"dvmc/internal/proc"
	"dvmc/internal/sim"
)

// barnesGen is the phase-structured N-body generator: each iteration
// walks the shared body/tree data (reads across all partitions), computes
// forces (large gaps), writes back its own partition, and meets the other
// threads at a global barrier built from an atomic fetch-and-increment —
// the SPLASH-2 barnes pattern at memory-system granularity.
type barnesGen struct {
	spec   Spec
	thread int
	state  barnesState
}

type barnesPhase uint8

const (
	bpRead barnesPhase = iota + 1
	bpWrite
	bpBarrierMembar
	bpBarrierInc
	bpBarrierSpin
	bpBarrierExit
)

type barnesState struct {
	Rng    sim.Rand
	Phase  barnesPhase
	Step   int
	Round  uint64
	Target mem.Word
}

var _ proc.Program = (*barnesGen)(nil)

// Snapshot implements proc.Program.
func (g *barnesGen) Snapshot(into any) any {
	p, ok := into.(*barnesState)
	if !ok {
		p = new(barnesState)
	}
	*p = g.state
	return p
}

// Restore implements proc.Program.
func (g *barnesGen) Restore(s any) { g.state = *s.(*barnesState) }

// reads per iteration: the tree walk touches many bodies.
func (g *barnesGen) readsPerIter() int { return g.spec.Params.OpsPerTxn * 3 / 4 }

// writes per iteration: force write-back to the thread's own partition.
func (g *barnesGen) writesPerIter() int {
	w := g.spec.Params.OpsPerTxn - g.readsPerIter()
	if w < 1 {
		w = 1
	}
	return w
}

// partition returns the thread's slice of the shared body array.
func (g *barnesGen) partition() (lo, size int) {
	per := g.spec.Params.SharedBlocks / g.spec.Threads
	if per < 1 {
		per = 1
	}
	return (g.thread * per) % g.spec.Params.SharedBlocks, per
}

// Next implements proc.Program.
func (g *barnesGen) Next(prev proc.Result) (proc.Op, bool) {
	st := &g.state
	p := g.spec.Params
	for {
		switch st.Phase {
		case bpRead:
			if st.Step >= g.readsPerIter() {
				st.Step = 0
				st.Phase = bpWrite
				continue
			}
			st.Step++
			// Tree walk: read any body, with compute gaps (the force
			// calculation) between accesses.
			return proc.Op{
				Kind: proc.OpLoad,
				Addr: sharedAddr(st.Rng.Intn(p.SharedBlocks), st.Rng.Intn(mem.WordsPerBlock)),
				Gap:  g.gap(),
			}, true

		case bpWrite:
			if st.Step >= g.writesPerIter() {
				st.Step = 0
				st.Phase = bpBarrierMembar
				continue
			}
			st.Step++
			lo, size := g.partition()
			return proc.Op{
				Kind: proc.OpStore,
				Addr: sharedAddr(lo+st.Rng.Intn(size), st.Rng.Intn(mem.WordsPerBlock)),
				Data: mem.Word(st.Rng.Uint64()),
				Gap:  g.gap(),
			}, true

		case bpBarrierMembar:
			st.Phase = bpBarrierInc
			// Writes must be globally visible before announcing arrival.
			if m := g.spec.releaseMask(); m != 0 {
				return proc.Op{Kind: proc.OpMembar, Mask: m}, true
			}

		case bpBarrierInc:
			st.Round++
			st.Target = mem.Word(st.Round) * mem.Word(g.spec.Threads)
			st.Step = 0 // next prev comes from the RMW (pre-increment)
			st.Phase = bpBarrierSpin
			return proc.Op{
				Kind:     proc.OpRMW,
				Addr:     barrierAddr(),
				RMW:      increment,
				Blocking: true,
				Gap:      g.gap(),
			}, true

		case bpBarrierSpin:
			if !prev.Valid {
				panic("workload: barrier result missing")
			}
			// The RMW returns the pre-increment value; spin loads return
			// the current counter.
			arrived := prev.Value
			if st.Step == 0 {
				arrived++ // our own increment
			}
			st.Step = 1
			if arrived >= st.Target {
				st.Step = 0
				st.Phase = bpBarrierExit
				continue
			}
			return proc.Op{
				Kind:     proc.OpLoad,
				Addr:     barrierAddr(),
				Gap:      p.SpinGap,
				Blocking: true,
			}, true

		case bpBarrierExit:
			st.Phase = bpRead
			// One barrier round is one transaction. RMO re-acquires
			// ordering before the next read phase.
			if m := g.spec.acquireMask(); m != 0 {
				return proc.Op{Kind: proc.OpMembar, Mask: m, EndTxn: true}, true
			}
			return proc.Op{
				Kind:   proc.OpLoad,
				Addr:   sharedAddr(0, 0),
				Gap:    g.gap(),
				EndTxn: true,
			}, true

		default:
			panic(fmt.Sprintf("workload: bad barnes phase %d", st.Phase))
		}
	}
}

// increment is the barrier fetch-and-add transform.
func increment(v mem.Word) mem.Word { return v + 1 }

func (g *barnesGen) gap() int {
	m := g.spec.Params.GapMean
	if m <= 0 {
		return 0
	}
	return g.state.Rng.Intn(2*m + 1)
}
