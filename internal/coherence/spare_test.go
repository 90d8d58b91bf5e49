package coherence

import (
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
)

// TestSpareTakesOnlyFittingChunks lends an array a spare holding a chunk
// of another geometry, then one of its own: the misfit is dropped and a
// new chunk made, the fitting one is taken cleared, and release returns
// both full chunks.
func TestSpareTakesOnlyFittingChunks(t *testing.T) {
	var sp Spare
	wide := make([]line, chunkSets*8)
	sp.lines.free = [][]line{wide}
	a := newCacheArray(4*chunkSets, 4)
	a.spare = &sp.lines
	a.fillSet(3)
	if got := a.chunks[0].entries; len(got) != chunkSets*4 || &got[0] == &wide[0] {
		t.Fatalf("chunk 0 has %d lines (want %d) or is the 8-way spare", len(got), chunkSets*4)
	}
	if len(sp.lines.free) != 0 {
		t.Errorf("the spare keeps %d chunks that do not fit", len(sp.lines.free))
	}

	fit := make([]line, chunkSets*4)
	fit[5] = line{valid: true, block: 7, state: Modified}
	sp.lines.free = [][]line{fit}
	a.fillSet(chunkSets)
	if got := a.chunks[1].entries; &got[0] != &fit[0] || got[5] != (line{}) {
		t.Errorf("chunk 1 is not the spare's chunk, cleared: %+v", got[5])
	}

	a.release()
	if len(sp.lines.free) != 2 || a.chunks[0].entries != nil || a.chunks[1].entries != nil {
		t.Errorf("release left the spare %d chunks and the array chunks %v, %v", len(sp.lines.free), a.chunks[0].entries != nil, a.chunks[1].entries != nil)
	}
}

// TestSharedRecordsBindTheirTaker lends one Spare to both nodes'
// controllers and homes, so they take their records from one list per
// type. Before each take, the list's top record is one that node 0
// released, still naming it (as a record another system's controller put
// back would name that controller): each must come out naming the
// controller or home that took it. Then both nodes' accesses run through
// the shared lists and see each other's stores.
func TestSharedRecordsBindTheirTaker(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto protocolKind) {
		h := newHarness(t, proto, 2)
		h.setStrict(false)
		var sp Spare
		for n := range h.ctrls {
			sp.Lend(h.ctrls[n], h.homes[n])
		}
		c0, c1 := h.ctrl(0), h.ctrl(1)
		nop := func(mem.Word, bool) {}

		a := &access{core: c0}
		a.step = a.run
		sp.accesses.Put(a)
		c1.Load(0x1000, network.ClassCoherence, nop)
		if a.core != c1 {
			t.Error("an access record names the controller that released it, not the one that took it")
		}

		r := &inbound{core: c0}
		r.step = r.run
		sp.inbounds.Put(r)
		// Data for no MSHR, which a non-strict cache of either protocol drops.
		c1.receive(&network.Message{Src: 0, Dst: 1, Size: DataBytes, Class: network.ClassCoherence,
			Payload: &MsgSnoopData{Block: 0x80}})
		if r.core != c1 {
			t.Error("an input-latch record names the controller that released it, not the one that took it")
		}

		rt := &retry{core: c0}
		rt.step = rt.run
		sp.retries.Put(rt)
		free := c1.mshrs
		c1.mshrs = make(map[mem.BlockAddr]*mshr, maxMSHRs)
		for b := mem.BlockAddr(0); b < maxMSHRs; b++ {
			c1.mshrs[0x400+b] = &mshr{}
		}
		c1.join(0x90, false, network.ClassCoherence, waiter{})
		c1.mshrs = free
		if rt.core != c1 {
			t.Error("an MSHR-full retry record names the controller that released it, not the one that took it")
		}

		if proto == directory {
			w := &dirWait{home: h.dirHomes[0]}
			w.step = w.run
			sp.dirWaits.Put(w)
			h.dirHomes[1].Handle(&network.Message{Src: 0, Dst: 1, Size: CtrlBytes, Class: network.ClassCoherence,
				Payload: &MsgUnblock{Block: 0xa0, From: 0}})
			if w.home != h.dirHomes[1] {
				t.Error("a directory home's wait record names the home that released it, not the one that took it")
			}
		} else {
			w := &snoopWait{home: h.snoopHomes[0]}
			w.step = w.run
			sp.snoopWaits.Put(w)
			h.snoopHomes[1].HandleData(&network.Message{Src: 0, Dst: 1, Size: DataBytes, Class: network.ClassCoherence,
				Payload: &MsgSnoopWB{Block: 0xa0, From: 0}}) // no PutM pending: dropped
			if w.home != h.snoopHomes[1] {
				t.Error("a snooping home's wait record names the home that released it, not the one that took it")
			}
		}
		h.k.Run(5000)

		for i := mem.Addr(0); i < 8; i++ {
			addr := 0x2000 + i*mem.BlockBytes
			h.store(t, int(i)%2, addr, mem.Word(i+1))
			if got := h.load(t, int(i+1)%2, addr); got != mem.Word(i+1) {
				t.Errorf("node %d loaded %d from %#x, node %d stored %d", (i+1)%2, got, addr, i%2, i+1)
			}
		}
	})
}
