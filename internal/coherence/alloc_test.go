package coherence

import (
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestAccessPathSteadyStateAllocFree pins the processor-facing access
// path and the input latch at zero heap allocations once warm: an L1-hit
// load, an L1-hit store (ECC on, so the code words are rewritten too) and
// a delivered WBAck each travel through recycled records and bound step
// functions, never a closure. The callbacks are hoisted, as the write
// buffers and the cores hoist theirs.
func TestAccessPathSteadyStateAllocFree(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto protocolKind) {
		cfg := testConfig(2)
		cfg.CacheECC = true
		h := newHarnessWithCfg(t, proto, cfg)
		const addr = mem.Addr(0x1000)
		h.store(t, 0, addr, 7) // the line is now Modified and its L1 tag hot
		c := h.ctrl(0)
		now := h.k.Now()
		tick := func() {
			c.Tick(now)
			now++
		}

		var got mem.Word
		loaded := func(v mem.Word, l1 bool) {
			if !l1 {
				t.Fatal("load missed the L1")
			}
			got = v
		}
		load := func() {
			c.Load(addr, network.ClassCoherence, loaded)
			tick()
			tick() // L1 latency 1: issued at now, due one cycle on
		}
		load()
		if got != 7 {
			t.Fatalf("warm-up load = %d, want 7", got)
		}
		if allocs := testing.AllocsPerRun(1, batch(load)); allocs != 0 {
			t.Errorf("L1-hit Load: %v allocs in 500 accesses, want 0", allocs)
		}

		stores := 0
		stored := func() { stores++ }
		store := func() {
			c.Store(addr, mem.Word(stores), stored)
			tick()
			tick()
		}
		store()
		if stores != 1 || c.Stats().L2Misses != 1 {
			t.Fatalf("warm-up store: %d completions, %d L2 misses (want 1 and the cold miss)", stores, c.Stats().L2Misses)
		}
		if allocs := testing.AllocsPerRun(1, batch(store)); allocs != 0 {
			t.Errorf("L1-hit Store: %v allocs in 500 accesses, want 0", allocs)
		}

		if proto != directory {
			return
		}
		// A WBAck for a block with no writeback entry is absorbed; the same
		// message can be delivered again and again.
		dc := c.proto.(*DirCache)
		ack := &network.Message{Src: 1, Dst: 0, Size: CtrlBytes, Class: network.ClassCoherence,
			Payload: MsgWBAck{Block: mem.Addr(0x8000).Block()}}
		deliver := func() {
			dc.Handle(ack)
			tick()
			tick()
		}
		deliver()
		if c.events.Len() != 0 {
			t.Fatalf("%d events left after the WBAck was dispatched", c.events.Len())
		}
		if allocs := testing.AllocsPerRun(1, batch(deliver)); allocs != 0 {
			t.Errorf("delivered WBAck: %v allocs in 500 messages, want 0", allocs)
		}
	})
}

// TestHomeLatchSteadyStateAllocFree: a message delivered to a directory
// home waits in a recycled record, not a closure. An Unblock for a block
// with no transaction is dropped at dispatch (strict off), so only the
// latch is measured.
func TestHomeLatchSteadyStateAllocFree(t *testing.T) {
	h := newHarness(t, directory, 2)
	h.setStrict(false)
	home := h.dirHomes[0]
	msg := &network.Message{Src: 1, Dst: 0, Size: CtrlBytes, Class: network.ClassCoherence,
		Payload: MsgUnblock{Block: 0x40, From: 1}}
	now := sim.Cycle(0)
	deliver := func() {
		home.Handle(msg)
		home.Tick(now)
		home.Tick(now + 1)
		now += 2
	}
	deliver()
	if allocs := testing.AllocsPerRun(1, batch(deliver)); allocs != 0 {
		t.Errorf("home input latch: %v allocs in 500 messages, want 0", allocs)
	}
}

// batch runs step 500 times, to be measured as one run: AllocsPerRun
// truncates the mean per run to an integer, so only a single run counts
// an allocation that happens once in the 500.
func batch(step func()) func() {
	return func() {
		for k := 0; k < 500; k++ {
			step()
		}
	}
}
