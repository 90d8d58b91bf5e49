package proc

import (
	"testing"
	"testing/quick"

	"dvmc/internal/coherence"
	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// drainAll ticks the buffer and controller until empty.
func drainAll(t *testing.T, wb WriteBuffer, f *fakeCtrl) {
	t.Helper()
	var k sim.Kernel
	k.Register(f)
	k.Register(tick(wb))
	if !k.RunUntil(wb.Empty, 100000) {
		t.Fatalf("write buffer never drained (%d left)", wb.Len())
	}
}

type tick interface{ Tick(sim.Cycle) }

func TestInOrderWBDrainsFIFO(t *testing.T) {
	f := newFakeCtrl(3)
	var performed []uint64
	wb := NewInOrderWB(f, 8, func(seq uint64, _ mem.Addr, _ mem.Word, _ consistency.Model) {
		performed = append(performed, seq)
	}, func() {})
	for i := uint64(1); i <= 5; i++ {
		if !wb.Push(i, mem.Addr(0x100+64*i), mem.Word(i), consistency.TSO) {
			t.Fatalf("push %d rejected", i)
		}
	}
	drainAll(t, wb, f)
	for i, s := range performed {
		if s != uint64(i+1) {
			t.Fatalf("perform order %v, want FIFO", performed)
		}
	}
}

func TestInOrderWBCapacity(t *testing.T) {
	f := newFakeCtrl(1000) // effectively never drains during the test
	wb := NewInOrderWB(f, 2, func(uint64, mem.Addr, mem.Word, consistency.Model) {}, func() {})
	if !wb.Push(1, 0x100, 1, consistency.TSO) || !wb.Push(2, 0x140, 2, consistency.TSO) {
		t.Fatal("pushes below capacity rejected")
	}
	if wb.Push(3, 0x180, 3, consistency.TSO) {
		t.Fatal("push above capacity accepted")
	}
}

func TestInOrderWBLookupNewest(t *testing.T) {
	f := newFakeCtrl(1000)
	wb := NewInOrderWB(f, 8, func(uint64, mem.Addr, mem.Word, consistency.Model) {}, func() {})
	wb.Push(1, 0x100, 1, consistency.TSO)
	wb.Push(2, 0x100, 2, consistency.TSO)
	if v, ok := wb.Lookup(0x100); !ok || v != 2 {
		t.Errorf("Lookup = %v,%v; want newest value 2", v, ok)
	}
	if _, ok := wb.Lookup(0x200); ok {
		t.Error("Lookup hit for absent word")
	}
}

func TestOOOWBSameWordStoresPerformInOrder(t *testing.T) {
	// Property: for any push sequence, the perform order of stores to the
	// same word preserves sequence order, and the final cache value is
	// the newest store's (uniprocessor dataflow).
	f := func(wordChoices []uint8) bool {
		ctrl := newFakeCtrl(2)
		var performed []wbStore
		wb := NewOOOWB(ctrl, 256, 4, func(seq uint64, addr mem.Addr, val mem.Word, _ consistency.Model) {
			performed = append(performed, wbStore{seq: seq, addr: addr, val: val})
		}, func() {})
		var kernel sim.Kernel
		kernel.Register(ctrl)
		kernel.Register(tick(wb))
		latest := map[mem.Addr]mem.Word{}
		seq := uint64(0)
		for _, wc := range wordChoices {
			seq++
			// Few distinct words across two blocks to force conflicts.
			addr := mem.Addr(0x1000 + 8*int(wc%6) + 64*(int(wc)%2))
			val := mem.Word(seq * 1000)
			if !wb.Push(seq, addr, val, consistency.RMO) {
				return false
			}
			latest[addr] = val
			kernel.Step() // interleave pushes with draining
		}
		if !kernel.RunUntil(wb.Empty, 100000) {
			return false
		}
		// Per-word perform order must be ascending in seq.
		last := map[mem.Addr]uint64{}
		for _, p := range performed {
			if p.seq < last[p.addr] {
				return false
			}
			last[p.addr] = p.seq
		}
		// Final cache values must be the newest per word.
		for a, v := range latest {
			if ctrl.mem[a] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOOOWBOrderedStoreIsBarrier(t *testing.T) {
	// Property: no store pushed after an ordered store performs before
	// it, and the ordered store performs after everything older.
	f := func(pattern []bool) bool {
		if len(pattern) == 0 {
			return true
		}
		ctrl := newFakeCtrl(2)
		var performed []uint64
		ordered := map[uint64]bool{}
		models := map[uint64]consistency.Model{}
		wb := NewOOOWB(ctrl, 256, 4, func(seq uint64, _ mem.Addr, _ mem.Word, m consistency.Model) {
			performed = append(performed, seq)
			models[seq] = m
		}, func() {})
		var kernel sim.Kernel
		kernel.Register(ctrl)
		kernel.Register(tick(wb))
		for i, ord := range pattern {
			seq := uint64(i + 1)
			ordered[seq] = ord
			addr := mem.Addr(0x1000 + 64*(i%5))
			model := consistency.RMO
			if ord {
				model = consistency.TSO
			}
			if !wb.Push(seq, addr, mem.Word(seq), model) {
				return false
			}
			if i%3 == 0 {
				kernel.Step()
			}
		}
		if !kernel.RunUntil(wb.Empty, 100000) {
			return false
		}
		// Each store performs under the model it was pushed with. For
		// every ordered store O: everything performed before O has a
		// smaller seq, everything after a larger one.
		for pos, seq := range performed {
			if orderedModel(models[seq]) != ordered[seq] {
				return false
			}
			if !ordered[seq] {
				continue
			}
			for _, before := range performed[:pos] {
				if before > seq {
					return false
				}
			}
			for _, after := range performed[pos+1:] {
				if after < seq {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOOOWBCoalescesSameBlock(t *testing.T) {
	f := newFakeCtrl(50)
	wb := NewOOOWB(f, 32, 4, func(uint64, mem.Addr, mem.Word, consistency.Model) {}, func() {})
	wb.Push(1, 0x1000, 1, consistency.RMO)
	wb.Push(2, 0x1008, 2, consistency.RMO) // same block, different word
	if wb.Len() != 2 {
		t.Fatalf("Len = %d", wb.Len())
	}
	// Coalesced stores drain with a single block acquisition; both words
	// land.
	drainAll(t, wb, f)
	if f.mem[0x1000] != 1 || f.mem[0x1008] != 2 {
		t.Errorf("coalesced drain lost a word: %v", f.mem)
	}
}

func TestOOOWBPendingSortedBySeq(t *testing.T) {
	f := newFakeCtrl(10000)
	wb := NewOOOWB(f, 32, 4, func(uint64, mem.Addr, mem.Word, consistency.Model) {}, func() {})
	wb.Push(3, 0x1000, 3, consistency.RMO)
	wb.Push(1, 0x2000, 1, consistency.RMO)
	wb.Push(2, 0x1008, 2, consistency.RMO)
	p := wb.Pending()
	if len(p) != 3 {
		t.Fatalf("Pending len %d", len(p))
	}
	for i := 1; i < len(p); i++ {
		if p[i].Seq < p[i-1].Seq {
			t.Fatalf("Pending not sorted: %v", p)
		}
	}
	wb.Clear()
	if wb.Len() != 0 || !wb.Empty() {
		t.Error("Clear left state")
	}
}

func TestNewWriteBufferFor(t *testing.T) {
	f := newFakeCtrl(1)
	perf := func(uint64, mem.Addr, mem.Word, consistency.Model) {}
	if NewWriteBufferFor(consistency.SC, DefaultConfig(), f, perf, func() {}) != nil {
		t.Error("SC got a write buffer")
	}
	if _, ok := NewWriteBufferFor(consistency.TSO, DefaultConfig(), f, perf, func() {}).(*InOrderWB); !ok {
		t.Error("TSO buffer wrong type")
	}
	for _, m := range []consistency.Model{consistency.PSO, consistency.RMO} {
		if _, ok := NewWriteBufferFor(m, DefaultConfig(), f, perf, func() {}).(*OOOWB); !ok {
			t.Errorf("%v buffer wrong type", m)
		}
	}
}

// TestOOOWBCoalesceTargetsNewestSameBlockEntry is the deterministic
// regression for the write-buffer half of the RMW/same-word false
// alarm: once an older same-block entry is draining (or ordered), a new
// same-word store must coalesce into the newest eligible entry — or
// allocate a fresh one — never fold into an older entry, which would
// drain the new value ahead of values committed before it.
func TestOOOWBCoalesceTargetsNewestSameBlockEntry(t *testing.T) {
	ctrl := newFakeCtrl(6)
	var performed []wbStore
	wb := NewOOOWB(ctrl, 256, 4, func(seq uint64, addr mem.Addr, val mem.Word, _ consistency.Model) {
		performed = append(performed, wbStore{seq: seq, addr: addr, val: val})
	}, func() {})
	var k sim.Kernel
	k.Register(ctrl)
	k.Register(tick(wb))
	addr := mem.Addr(0x1000)
	if !wb.Push(1, addr, 100, consistency.RMO) {
		t.Fatal("push 1 rejected")
	}
	k.Step() // the first entry begins draining
	if !wb.Push(2, addr, 200, consistency.RMO) {
		t.Fatal("push 2 rejected")
	}
	if !wb.Push(3, addr, 300, consistency.RMO) {
		t.Fatal("push 3 rejected")
	}
	if !k.RunUntil(wb.Empty, 100000) {
		t.Fatalf("write buffer never drained (%d left)", wb.Len())
	}
	var seqs []uint64
	for _, p := range performed {
		if p.addr == addr {
			seqs = append(seqs, p.seq)
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("same-word perform order %v, want ascending seq", seqs)
		}
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 3 {
		t.Fatalf("perform order %v: newest store must perform last", seqs)
	}
	if ctrl.mem[addr] != 300 {
		t.Fatalf("final cache value %d, want the newest store's 300", ctrl.mem[addr])
	}
}

// heldStoreCtrl is a controller that only accepts stores: Store parks
// the completion callback until the test fires it. Anything else the
// write buffers called would panic on the nil embedded interface.
type heldStoreCtrl struct {
	coherence.Controller
	parked []func()
}

func (h *heldStoreCtrl) Store(_ mem.Addr, _ mem.Word, done func()) {
	h.parked = append(h.parked, done)
}

// complete fires parked store callbacks, oldest first, until none is
// left (an OOOWB drain issues its next word's store from the previous
// one's callback).
func (h *heldStoreCtrl) complete() {
	for len(h.parked) > 0 {
		done := h.parked[0]
		h.parked = append(h.parked[:0], h.parked[1:]...)
		done()
	}
}

// TestWriteBufferSteadyStateAllocFree pins both write buffers' warm
// push → drain → perform cycle to zero allocations: the queue and entry
// slices keep their capacity, the drain closures are built once, and
// OOOWB's entries come back from its free list (recycle on finish, Get
// on the next push).
func TestWriteBufferSteadyStateAllocFree(t *testing.T) {
	perf := func(uint64, mem.Addr, mem.Word, consistency.Model) {}
	t.Run("InOrderWB", func(t *testing.T) {
		ctrl := &heldStoreCtrl{}
		wb := NewInOrderWB(ctrl, 4, perf, func() {})
		seq := uint64(0)
		cycle := func() {
			seq++
			wb.Push(seq, 0x100, mem.Word(seq), consistency.RMO)
			seq++
			wb.Push(seq, 0x148, mem.Word(seq), consistency.RMO)
			for !wb.Empty() {
				wb.Tick(0)
				ctrl.complete()
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("InOrderWB push/drain/perform: %.2f allocs/op, want 0", allocs)
		}
	})
	t.Run("OOOWB", func(t *testing.T) {
		ctrl := &heldStoreCtrl{}
		wb := NewOOOWB(ctrl, 8, 2, perf, func() {})
		seq := uint64(0)
		cycle := func() {
			// Two stores coalesce into one entry of block 0x100; the
			// third opens a second entry.
			for _, addr := range []mem.Addr{0x100, 0x108, 0x140} {
				seq++
				wb.Push(seq, addr, mem.Word(seq), consistency.RMO)
			}
			for !wb.Empty() {
				wb.Tick(0)
				ctrl.complete()
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("OOOWB push/drain/perform: %.2f allocs/op, want 0", allocs)
		}
	})
}
