package core

import (
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// The DVMC checkers sit on every commit, perform, and epoch transition,
// so their steady-state paths must not allocate. The benchmarks below
// measure ns/op and allocs/op; the companion tests pin allocs/op to
// exactly zero with testing.AllocsPerRun so a regression fails `go test`
// rather than only showing up in benchmark output.

// releaseNet is a network stub that consumes informs the way the system
// does: hand the message to the MET (if any) and return it to the pool.
type releaseNet struct {
	pool *InformPool
	met  *MemChecker
}

func (n *releaseNet) Send(m *network.Message) {
	if n.met != nil {
		n.met.Handle(m)
	}
	n.pool.Release(m)
}

// vcStep runs one steady-state commit→perform→replay round against a
// working set of 16 words.
func vcStep(u *UniprocChecker, i int) (hit, match bool) {
	addr := mem.Addr(8 * (i & 15))
	v := mem.Word(i)
	u.StoreCommitted(addr, v)
	u.StorePerformed(addr, v, sim.Cycle(i))
	return u.ReplayLoad(addr, v, sim.Cycle(i))
}

func BenchmarkVCReplay(b *testing.B) {
	u := NewUniprocChecker(0, 64, true, SinkFunc(func(Violation) {}))
	for i := 0; i < 512; i++ {
		vcStep(u, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vcStep(u, i)
	}
}

func TestVCReplaySteadyStateAllocFree(t *testing.T) {
	u := NewUniprocChecker(0, 64, true, SinkFunc(func(v Violation) {
		t.Errorf("unexpected violation: %+v", v)
	}))
	i := 0
	step := func() {
		if hit, match := vcStep(u, i); !hit || !match {
			t.Fatalf("replay %d: hit=%v match=%v", i, hit, match)
		}
		i++
	}
	for j := 0; j < 512; j++ {
		step() // warm the slab, index map, and value FIFOs
	}
	// One measured run of 2000 steps: AllocsPerRun truncates the mean
	// per run to an integer, so only a single run counts an allocation
	// that happens once in the 2000.
	batch := func() {
		for k := 0; k < 2000; k++ {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("VC replay steady state: %.0f allocs in 2000 steps, want 0", allocs)
	}
}

// newCETBench assembles a CET wired to a MET through a pooled
// release-on-delivery network, mirroring the system topology.
func newCETBench(sink Sink) (*CacheChecker, *MemChecker, *manualClock, func() sim.Cycle) {
	pool := &InformPool{}
	clock := &manualClock{t: 100}
	cyc := new(sim.Cycle)
	met := NewMemChecker(0, testCfg(), clock, func() sim.Cycle { return *cyc }, sink)
	net := &releaseNet{pool: pool, met: met}
	cet := NewCacheChecker(1, testCfg(), net, clock, func() sim.Cycle { return *cyc }, sink)
	cet.SetInformPool(pool)
	tick := func() sim.Cycle { *cyc++; return *cyc }
	return cet, met, clock, tick
}

// cetStep opens, uses, and closes one Read-Write epoch over a working
// set of 16 blocks, then ticks the MET so queued informs are consumed.
func cetStep(cet *CacheChecker, met *MemChecker, clock *manualClock, tick func() sim.Cycle, i int) {
	blk := mem.BlockAddr(0x80 * (i & 15))
	var data mem.Block
	clock.t += 4
	cet.EpochBegin(blk, coherence.ReadWrite, clock.t, true, data)
	cet.Access(blk, true)
	cet.EpochEnd(blk, coherence.ReadWrite, clock.t+1, data)
	met.Tick(tick())
}

func BenchmarkCETUpdate(b *testing.B) {
	cet, met, clock, tick := newCETBench(SinkFunc(func(Violation) {}))
	for i := 0; i < 1024; i++ {
		cetStep(cet, met, clock, tick, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cetStep(cet, met, clock, tick, i)
	}
}

func TestCETUpdateSteadyStateAllocFree(t *testing.T) {
	cet, met, clock, tick := newCETBench(SinkFunc(func(v Violation) {
		t.Errorf("unexpected violation: %+v", v)
	}))
	i := 0
	step := func() {
		cetStep(cet, met, clock, tick, i)
		i++
	}
	for j := 0; j < 1024; j++ {
		step() // warm CET slab, scrub ring, inform pool, MET queue/slab
	}
	// One measured run of 2000 steps: AllocsPerRun truncates the mean
	// per run to an integer, so only a single run counts an allocation
	// that happens once in the 2000.
	batch := func() {
		for k := 0; k < 2000; k++ {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("CET update steady state: %.0f allocs in 2000 steps, want 0", allocs)
	}
}

func BenchmarkMETHandleInform(b *testing.B) {
	sink := SinkFunc(func(Violation) {})
	clock := &manualClock{t: 100}
	var cyc sim.Cycle
	met := NewMemChecker(0, testCfg(), clock, func() sim.Cycle { return cyc }, sink)
	inform := InformEpoch{Block: 0x80, Kind: coherence.ReadWrite, From: 1}
	msg := &network.Message{Payload: &inform}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.t += 4
		inform.Begin = Wrap(clock.t)
		inform.End = Wrap(clock.t + 1)
		met.Handle(msg)
		cyc++
		met.Tick(cyc)
	}
}
