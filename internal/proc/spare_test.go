package proc

import (
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestSpareUopBindsItsTaker lends one Spare to two RMO cores. Its
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
		cs[i] = NewCPU(network.NodeID(i), testProcCfg(), consistency.RMO, fs[i],
			NewScript([]Op{st(base, 1), st(base+0x40, 2), ld(base), st(base+0x80, 3), ld(base + 0x40)}))
		sp.Lend(cs[i])
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
