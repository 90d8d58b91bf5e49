package coherence

import (
	"reflect"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestAccessPathSteadyStateAllocFree pins the processor-facing access
// path and the input latch at zero heap allocations once warm: an L1-hit
// load, an L1-hit store (through the line ECC's access checks) and
// a delivered WBAck each travel through recycled records and bound step
// functions, never a closure. The callbacks are hoisted, as the write
// buffers and the cores hoist theirs.
func TestAccessPathSteadyStateAllocFree(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto protocolKind) {
		h := newHarness(t, proto, 2)
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
			Payload: &MsgWBAck{Block: mem.Addr(0x8000).Block()}}
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
		Payload: &MsgUnblock{Block: 0x40, From: 1}}
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

// msgTrap is a network that keeps only the last message sent on it.
type msgTrap struct {
	last *network.Message
	sent int
}

func (n *msgTrap) Send(m *network.Message) { n.last, n.sent = m, n.sent+1 }

// TestCoherenceSendSteadyStateAllocBudget pins every coherence payload
// type, on both protocols, at one heap object per send: the envelope and
// its body are one allocation (network.Wrap). Each row drives one real
// send site against a trap network. An eviction's writeback-buffer entry
// is held by value, so the PutM and PutS rows allocate their message
// only.
func TestCoherenceSendSteadyStateAllocBudget(t *testing.T) {
	cfg := testConfig(4)
	k := &sim.Kernel{}
	trap := &msgTrap{}
	dc := NewDirCache(0, cfg, trap, NewSkewedClock(k.Now, 0, 8))
	dh := NewDirHome(1, cfg, trap, mem.NewMemory())
	tree := network.NewBroadcastTree(cfg.Nodes, 8.0, 3, nil)
	sc := NewSnoopCache(0, cfg, tree, trap)
	sh := NewSnoopHome(1, cfg, trap, mem.NewMemory())
	for _, c := range []sim.Clockable{dc, dh, tree, sc, sh} {
		k.Register(c)
	}
	// The tree has no handlers: what it delivers lands in the trap.
	tree.SetObserver(func(m *network.Message, _ sim.Cycle) { trap.Send(m) })
	dc.SetStrict(false)

	const b = mem.BlockAddr(5)
	var data mem.Block
	data[0] = 1
	line := dc.allocate(b) // evicted and reinstalled by the PutM/PutS rows
	e := dh.entry(b)
	req := &mshr{block: b, class: network.ClassCoherence}
	reqM := &mshr{block: b, wantM: true, class: network.ClassCoherence}
	inv, recall := &MsgInv{Block: b}, &MsgRecall{Block: b}
	getS, getM := &MsgGetS{Block: b, Requestor: 2}, &MsgGetM{Block: b, Requestor: 0}
	putS := &MsgPutS{Block: b, Requestor: 2}
	wb := wbEntry{data: data, dirty: true}
	supply := &snoopWait{what: workSupply, block: b, node: 2}

	for _, row := range []struct {
		name string
		want any // a nil pointer of the payload type the row sends
		send func()
	}{
		{"directory GetS", (*MsgGetS)(nil), func() { dc.sendRequest(req) }},
		{"directory GetM", (*MsgGetM)(nil), func() { dc.sendRequest(reqM) }},
		{"directory PutM", (*MsgPutM)(nil), func() {
			dc.l2.install(line, b, Modified, data, true)
			dc.evict(line)
			delete(dc.wb, b)
		}},
		{"directory PutS", (*MsgPutS)(nil), func() {
			dc.l2.install(line, b, Shared, data, true)
			dc.evict(line)
			delete(dc.wb, b)
		}},
		{"directory InvAck", (*MsgInvAck)(nil), func() { dc.onInv(inv) }},
		{"directory RecallAck", (*MsgRecallAck)(nil), func() { dc.onRecall(recall) }},
		{"directory Unblock", (*MsgUnblock)(nil), func() {
			ms := dc.mshrFree.Get()
			ms.block = b
			dc.serve(ms, line, true)
		}},
		{"directory Recall", (*MsgRecall)(nil), func() {
			e.busy, e.owner = false, 0
			dh.startGetS(e, getS)
		}},
		{"directory Inv", (*MsgInv)(nil), func() {
			e.busy, e.owner, e.sharers = false, 0, 1<<2
			dh.startGetM(e, getM)
		}},
		{"directory Data", (*MsgData)(nil), func() {
			e.begin(txnGetS, 2).haveData = true
			dh.maybeGrant(b, e)
		}},
		{"directory PermM", (*MsgPermM)(nil), func() {
			t := e.begin(txnGetM, 0)
			t.haveData, t.upgrade = true, true
			dh.maybeGrant(b, e)
		}},
		{"directory WBAck", (*MsgWBAck)(nil), func() {
			e.busy = false
			dh.startPutS(e, putS)
		}},
		{"snooping request", (*MsgSnoop)(nil), func() {
			sc.sendRequest(req)
			k.Run(8)
		}},
		{"snooping cache supply", (*MsgSnoopData)(nil), func() { sc.supply(2, b, data) }},
		{"snooping home supply", (*MsgSnoopData)(nil), func() { sh.perform(supply) }},
		{"snooping writeback", (*MsgSnoopWB)(nil), func() {
			sc.wb[b] = wb
			sc.onOwnPutM(b)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			trap.last = nil
			n := trap.sent
			row.send()
			if trap.sent != n+1 || trap.last == nil {
				t.Fatalf("sent %d messages, want 1", trap.sent-n)
			}
			if got, want := reflect.TypeOf(trap.last.Payload), reflect.TypeOf(row.want); got != want {
				t.Fatalf("sent a %v, want a %v", got, want)
			}
			if allocs := testing.AllocsPerRun(100, row.send); allocs != 1 {
				t.Errorf("%v heap objects per send, want 1", allocs)
			}
		})
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
