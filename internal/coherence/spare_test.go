package coherence

import (
	"slices"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
)

// TestSpareTakesOnlyFittingChunks empties an array that filled two
// chunks, once for its own geometry and once for another: the fitting
// array keeps both chunks, cleared and untouched, and the misfit drops
// them for chunks of its own, made at its first fill.
func TestSpareTakesOnlyFittingChunks(t *testing.T) {
	a := new(cacheArray).emptied(4*chunkSets, 4)
	for _, b := range []mem.BlockAddr{3, chunkSets} {
		l := &a.fillSet(b)[0]
		a.install(l, b, Modified, mem.Block{1}, true)
	}
	first, second := &a.chunks[0].entries[0], &a.chunks[1].entries[0]
	a.emptied(4*chunkSets, 4)
	if &a.chunks[0].entries[0] != first || &a.chunks[1].entries[0] != second {
		t.Fatal("an array emptied for its own geometry dropped its chunks")
	}
	for k := range a.chunks[:2] {
		if c := a.chunks[k]; c.touched != 0 || slices.ContainsFunc(c.entries, func(l line) bool { return l != line{} }) {
			t.Errorf("chunk %d is not cleared: touched %#x", k, c.touched)
		}
	}
	if a.tick != 0 || a.occupancy() != 0 {
		t.Errorf("the emptied array keeps tick %d and %d lines", a.tick, a.occupancy())
	}

	a.emptied(4*chunkSets, 8)
	if len(a.chunks) != 4 || a.chunks[0].entries != nil || a.chunks[1].entries != nil {
		t.Fatal("an array emptied for another geometry kept its chunks")
	}
	if got := a.fillSet(3); len(got) != 8 {
		t.Errorf("a fill after the geometry changed made a set of %d ways, want 8", len(got))
	}
}

// TestSharedRecordsBindTheirTaker points both nodes' controllers and
// homes at one Spare's records, as building them on it does, so they take
// their records from one list per type. Before each take, the list's top record is one that node 0
// released, still naming it (as a record another system's controller put
// back would name that controller): each must come out naming the
// controller or home that took it. Then both nodes' accesses run through
// the shared lists and see each other's stores.
func TestSharedRecordsBindTheirTaker(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto protocolKind) {
		h := newHarness(t, proto, 2)
		h.setStrict(false)
		var sp Spare
		for _, c := range h.cores {
			c.accesses, c.inbounds, c.mshrFree, c.retries = &sp.accesses, &sp.inbounds, &sp.mshrs, &sp.retries
		}
		for _, dh := range h.dirHomes {
			dh.waits = &sp.dirWaits
		}
		for _, sh := range h.snoopHomes {
			sh.waits = &sp.snoopWaits
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
