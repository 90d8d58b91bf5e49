package proc

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestSpareUopBindsItsTaker builds two RMO cores on one Spare. Its
// micro-op list holds a uop that a core of another system put back,
// still naming that core and holding its program's snapshot buffer, of
// another program type. The core that takes the uop must bind itself as
// its owner and get a fresh buffer from its own program's Snapshot; both
// cores then run their scripts through the shared micro-op and
// write-buffer lists to the end.
func TestSpareUopBindsItsTaker(t *testing.T) {
	type otherState struct{ phase, left int }
	var sp Spare
	elsewhere := NewCPU(9, testProcCfg(), consistency.RMO, newFakeCtrl(3), NewScript(nil))
	stale := &uop{cpu: elsewhere, snapBuf: &otherState{1, 2}}
	sp.uops.Put(stale)

	var k sim.Kernel
	fs := [2]*fakeCtrl{newFakeCtrl(3), newFakeCtrl(3)}
	var cs [2]*CPU
	for i := range cs {
		base := mem.Addr(0x1000 * (i + 1))
		cs[i] = sp.NewCPU(network.NodeID(i), testProcCfg(), consistency.RMO, fs[i],
			NewScript([]Op{st(base, 1), st(base+0x40, 2), ld(base), st(base+0x80, 3), ld(base + 0x40)}))
		k.Register(fs[i])
	}
	// Core 1 ticks first, so its first fetch takes the stale uop.
	k.Register(cs[1])
	k.Register(cs[0])
	k.Step()
	if cs[1].pendingOp != stale && !inROB(cs[1], stale) {
		t.Fatal("core 1's first fetch did not take the uop on the spare's list")
	}
	if stale.cpu != cs[1] {
		t.Errorf("the taken uop names core %v, want the core that took it", stale.cpu.node)
	}
	if _, ok := stale.snapBuf.(*int); !ok {
		t.Errorf("the taken uop's snapshot buffer is a %T, want a fresh one of its program's type", stale.snapBuf)
	}
	done := func() bool { return cs[0].Finished() && cs[1].Finished() }
	if !k.RunUntil(done, 100_000) {
		t.Fatal("the cores did not finish")
	}
	for i, f := range fs {
		base := mem.Addr(0x1000 * (i + 1))
		if f.mem[base] != 1 || f.mem[base+0x40] != 2 || f.mem[base+0x80] != 3 {
			t.Errorf("core %d's memory: %v", i, f.mem)
		}
		if s := cs[i].Stats(); s.OpsRetired != 5 {
			t.Errorf("core %d retired %d ops, want 5", i, s.OpsRetired)
		}
	}
}

// TestKeptCPURunsAsNew retires a core with micro-ops in flight — loads
// waiting on a slow cache, fetch stalled behind one of them — and builds the next core on the
// Spare it was kept in: it must be that core, re-initialised, run a
// script of another model exactly as a new core does, and have handed
// the uops its last run held back to the Spare's list.
func TestKeptCPURunsAsNew(t *testing.T) {
	script := func() Program {
		return NewScript([]Op{st(0x100, 1), ld(0x140), st(0x180, 2), ld(0x100),
			{Kind: OpLoad, Addr: 0x1c0, Blocking: true}, st(0x140, 3)})
	}
	run := func(c *CPU, f *fakeCtrl) (Stats, map[mem.Addr]mem.Word, sim.Cycle) {
		var k sim.Kernel
		k.Register(f)
		k.Register(c)
		if !k.RunUntil(c.Finished, 100_000) {
			t.Fatal("the core did not finish")
		}
		return c.Stats(), f.mem, k.Now()
	}

	var sp Spare
	slow := newFakeCtrl(200)
	old := sp.NewCPU(0, testProcCfg(), consistency.TSO, slow, script())
	var k sim.Kernel
	k.Register(slow)
	k.Register(old)
	k.Run(20)
	if len(old.rob) == 0 || old.blockingOp == nil {
		t.Fatalf("the core holds too little in flight to retire with: rob %d, blocking op %v", len(old.rob), old.blockingOp != nil)
	}
	inFlight := len(old.rob)
	sp.Keep([]*CPU{old})

	for _, model := range []consistency.Model{consistency.TSO, consistency.RMO} {
		fresh := NewCPU(0, testProcCfg(), model, newFakeCtrl(3), script())
		wantStats, wantMem, wantAt := run(fresh, fresh.ctrl.(*fakeCtrl))
		kept := sp.NewCPU(0, testProcCfg(), model, newFakeCtrl(3), script())
		if kept != old {
			t.Fatal("the Spare built a new core beside the kept one")
		}
		if model == consistency.TSO {
			// A uop that ran carries its snapshot buffer; a new one none.
			var back []*uop
			for len(back) < inFlight {
				if u := sp.uops.Get(); u.snapBuf != nil && u.cpu == nil {
					back = append(back, u)
				} else {
					t.Fatalf("the Spare got back %d uops, the retired core held %d in its ROB", len(back), inFlight)
				}
			}
			for _, u := range back {
				sp.uops.Put(u)
			}
		}
		gotStats, gotMem, gotAt := run(kept, kept.ctrl.(*fakeCtrl))
		if gotStats != wantStats || gotAt != wantAt || !maps.Equal(gotMem, wantMem) {
			t.Errorf("%v: the kept core ran to %d with %+v and %v, a new one to %d with %+v and %v",
				model, gotAt, gotStats, gotMem, wantAt, wantStats, wantMem)
		}
		sp.Keep([]*CPU{kept})
	}
}

// TestKeptEqualsNew re-initialises a core that retired with uops in
// flight, for each kind of write buffer and for a reorder buffer that no
// longer fits, and requires it to equal one built new with the same
// arguments once the storage its init keeps — the reorder buffer's
// regions, the write buffer's queue or entries and the callbacks it was
// bound with — is blanked in both: a field init forgets to reset shows as
// a difference.
func TestKeptEqualsNew(t *testing.T) {
	uops, entries := new(sim.FreeList[uop]), new(sim.FreeList[oooEntry])
	ctrl, prog := newFakeCtrl(3), NewScript(nil)
	small := testProcCfg()
	small.ROBInstrs = 16
	for _, model := range []consistency.Model{consistency.SC, consistency.TSO, consistency.PSO, consistency.RMO} {
		for _, cfg := range []Config{testProcCfg(), small} {
			for _, ran := range []consistency.Model{consistency.TSO, consistency.RMO} {
				slow := newFakeCtrl(200)
				var ops []Op
				for i := mem.Addr(0); i < 24; i++ {
					ops = append(ops, st(i*0x40, 1), ld(i*0x48))
				}
				kept := NewCPU(0, testProcCfg(), ran, slow, NewScript(ops))
				var k sim.Kernel
				k.Register(slow)
				k.Register(kept)
				k.Run(60)
				got := kept.init(1, cfg, model, ctrl, prog, uops, entries)
				want := new(CPU).init(1, cfg, model, ctrl, prog, uops, entries)
				blankKept(got)
				blankKept(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v core re-initialised for %v, ROB %d:\n%+v\nnew:\n%+v", ran, model, cfg.ROBInstrs, got, want)
				}
			}
		}
	}
}

// blankKept clears the storage a core's init keeps, which a new core
// makes afresh.
func blankKept(c *CPU) {
	if !slices.ContainsFunc(c.robBuf, func(u *uop) bool { return u != nil }) {
		c.robBuf = nil
	}
	c.rob, c.execQ, c.fenceQ, c.replayQ = none(c.rob), none(c.execQ), none(c.fenceQ), none(c.replayQ)
	switch w := c.wb.(type) {
	case *InOrderWB:
		w.queue, w.perf, w.wake, w.drainCB = none(w.queue), nil, nil, nil
	case *OOOWB:
		w.entries, w.perf, w.wake = none(w.entries), nil, nil
	}
}

// none is s, or nil if s is empty: how a test blanks the storage an init
// keeps, without hiding what it forgot to empty.
func none[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
