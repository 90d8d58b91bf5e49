package proc

import (
	"strings"
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/consistency"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// fakeCtrl is an immediate-memory cache controller for pipeline unit
// tests: loads and stores complete after a fixed latency against a flat
// memory, with every load counting as an L1 hit. PrefetchExclusive warms
// a block: accesses to warm blocks take warmLatency instead.
type fakeCtrl struct {
	mem     map[mem.Addr]mem.Word
	latency sim.Cycle
	// warmLatency applies to blocks warmed by prefetch (0: disabled).
	warmLatency sim.Cycle
	// warmAfter is the delay before a prefetch warms its block.
	warmAfter sim.Cycle
	warm      map[mem.BlockAddr]bool
	// perAddr overrides the latency for specific addresses.
	perAddr map[mem.Addr]sim.Cycle
	events  sim.EventQueue
	now     sim.Cycle

	loads, stores, replays, prefetches int
	storeLog                           []mem.Word
	accessL                            coherence.AccessListener
}

func newFakeCtrl(latency sim.Cycle) *fakeCtrl {
	return &fakeCtrl{
		mem:     make(map[mem.Addr]mem.Word),
		latency: latency,
		warm:    make(map[mem.BlockAddr]bool),
		perAddr: make(map[mem.Addr]sim.Cycle),
	}
}

func (f *fakeCtrl) Tick(now sim.Cycle) { f.now = now; f.events.Tick(now) }

func (f *fakeCtrl) latencyOf(addr mem.Addr) sim.Cycle {
	if l, ok := f.perAddr[addr]; ok {
		return l
	}
	if f.warmLatency > 0 && f.warm[addr.Block()] {
		return f.warmLatency
	}
	return f.latency
}

func (f *fakeCtrl) Load(addr mem.Addr, class network.Class, done func(mem.Word, bool)) {
	if class == network.ClassReplay {
		f.replays++
	} else {
		f.loads++
	}
	f.events.At(f.now+f.latencyOf(addr), func() { done(f.mem[addr], true) })
}

func (f *fakeCtrl) Store(addr mem.Addr, val mem.Word, done func()) {
	f.stores++
	f.events.At(f.now+f.latencyOf(addr), func() {
		f.mem[addr] = val
		f.storeLog = append(f.storeLog, val)
		done()
	})
}

func (f *fakeCtrl) RMW(addr mem.Addr, fn func(mem.Word) mem.Word, done func(mem.Word)) {
	f.events.At(f.now+f.latencyOf(addr), func() {
		old := f.mem[addr]
		f.mem[addr] = fn(old)
		done(old)
	})
}

func (f *fakeCtrl) PrefetchExclusive(addr mem.Addr) {
	f.prefetches++
	if f.warmLatency > 0 {
		f.events.At(f.now+f.warmAfter, func() { f.warm[addr.Block()] = true })
	}
}

func (f *fakeCtrl) PeekWord(addr mem.Addr) (mem.Word, bool) {
	v, ok := f.mem[addr]
	return v, ok
}

func (f *fakeCtrl) Outstanding() int                             { return 0 }
func (f *fakeCtrl) SetEpochListener(coherence.EpochListener)     {}
func (f *fakeCtrl) SetAccessListener(l coherence.AccessListener) { f.accessL = l }
func (f *fakeCtrl) SetTxnListener(coherence.TxnListener)         {}
func (f *fakeCtrl) Stats() coherence.ControllerStats             { return coherence.ControllerStats{} }
func (f *fakeCtrl) SetStrict(bool)                               {}
func (f *fakeCtrl) CorruptCacheBit(mem.BlockAddr, int) bool      { return false }
func (f *fakeCtrl) DropPermissionFault(mem.BlockAddr) bool       { return false }
func (f *fakeCtrl) WriteWithoutPermissionFault(mem.Addr, mem.Word) bool {
	return false
}
func (f *fakeCtrl) ForEachDirty(func(int), func(mem.BlockAddr, mem.Block)) {}
func (f *fakeCtrl) ResidentBlocks(int) []mem.BlockAddr                     { return nil }
func (f *fakeCtrl) ECCCorrected() uint64                                   { return 0 }
func (f *fakeCtrl) ResidentReadOnlyBlocks(int) []mem.BlockAddr             { return nil }
func (f *fakeCtrl) CorruptLineStateFault(mem.BlockAddr, bool) bool         { return false }
func (f *fakeCtrl) StateFaultFired() (sim.Cycle, bool)                     { return 0, false }
func (f *fakeCtrl) Reset()                                                 {}

var _ coherence.Controller = (*fakeCtrl)(nil)

// runCPU drives a CPU and its controller until the program finishes.
func runCPU(t *testing.T, c *CPU, f *fakeCtrl, budget uint64) uint64 {
	t.Helper()
	var k sim.Kernel
	k.Register(f)
	k.Register(c)
	if !k.RunUntil(c.Finished, budget) {
		t.Fatalf("CPU did not finish within %d cycles: %v", budget, c)
	}
	return uint64(k.Now())
}

func testProcCfg() Config {
	cfg := DefaultConfig()
	cfg.MembarInjectionInterval = 0
	return cfg
}

func st(addr mem.Addr, v mem.Word) Op { return Op{Kind: OpStore, Addr: addr, Data: v} }
func ld(addr mem.Addr) Op             { return Op{Kind: OpLoad, Addr: addr} }
func mb(m consistency.MembarMask) Op  { return Op{Kind: OpMembar, Mask: m} }

func TestCPURunsSimpleScript(t *testing.T) {
	f := newFakeCtrl(3)
	ops := []Op{
		st(0x100, 1),
		st(0x108, 2),
		ld(0x100),
		{Kind: OpStore, Addr: 0x110, Data: 3, EndTxn: true},
	}
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, NewScript(ops))
	runCPU(t, c, f, 100000)
	if f.mem[0x100] != 1 || f.mem[0x108] != 2 || f.mem[0x110] != 3 {
		t.Errorf("memory state wrong: %v", f.mem)
	}
	s := c.Stats()
	if s.OpsRetired != 4 {
		t.Errorf("OpsRetired = %d, want 4", s.OpsRetired)
	}
	if s.Transactions != 1 {
		t.Errorf("Transactions = %d, want 1", s.Transactions)
	}
}

func TestCPUStoreToLoadForwarding(t *testing.T) {
	f := newFakeCtrl(3)
	ops := []Op{st(0x200, 42), ld(0x200)}
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, NewScript(ops))
	runCPU(t, c, f, 100000)
	if c.Stats().ForwardedLoads != 1 {
		t.Errorf("ForwardedLoads = %d, want 1 (LSQ or WB forward)", c.Stats().ForwardedLoads)
	}
}

func TestCPUGapInstructionsThrottleFetch(t *testing.T) {
	// 100 ops with gap 40 each at width 4 need >= 100*41/4 ≈ 1025 cycles.
	f := newFakeCtrl(1)
	var ops []Op
	for i := 0; i < 100; i++ {
		op := ld(mem.Addr(0x1000 + 8*i))
		op.Gap = 40
		ops = append(ops, op)
	}
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, NewScript(ops))
	cycles := runCPU(t, c, f, 1000000)
	if cycles < 1000 {
		t.Errorf("100 gap-40 ops finished in %d cycles; front end ignored gaps", cycles)
	}
	if got := c.Stats().InstrsRetired; got != 100*41 {
		t.Errorf("InstrsRetired = %d, want %d", got, 100*41)
	}
}

func TestCPUTSOFasterThanSCOnStoreMisses(t *testing.T) {
	// SC stalls retirement until each store performs (even a warm store
	// pays the hit latency on the commit path); TSO retires stores into
	// the write buffer and overlaps draining with the following compute.
	mkOps := func() []Op {
		var ops []Op
		for i := 0; i < 50; i++ {
			op := st(mem.Addr(0x1000+64*i), mem.Word(i))
			op.Gap = 20
			ops = append(ops, op)
		}
		return ops
	}
	mkCtrl := func() *fakeCtrl {
		f := newFakeCtrl(50)
		f.warmLatency = 5
		f.warmAfter = 50
		return f
	}
	fSC := mkCtrl()
	sc := NewCPU(0, testProcCfg(), consistency.SC, fSC, NewScript(mkOps()))
	scCycles := runCPU(t, sc, fSC, 10000000)

	fTSO := mkCtrl()
	tso := NewCPU(0, testProcCfg(), consistency.TSO, fTSO, NewScript(mkOps()))
	tsoCycles := runCPU(t, tso, fTSO, 10000000)

	if tsoCycles >= scCycles {
		t.Errorf("TSO (%d cycles) not faster than SC (%d cycles) on store misses", tsoCycles, scCycles)
	}
}

func TestCPUMembarDrainsWriteBuffer(t *testing.T) {
	f := newFakeCtrl(20)
	ops := []Op{
		st(0x100, 1),
		st(0x140, 2),
		mb(consistency.SS),
		st(0x180, 3),
	}
	c := NewCPU(0, testProcCfg(), consistency.PSO, f, NewScript(ops))
	runCPU(t, c, f, 100000)
	if c.Stats().MembarStalls == 0 {
		t.Error("membar never stalled despite pending stores")
	}
	// All stores must have reached memory.
	if f.mem[0x100] != 1 || f.mem[0x140] != 2 || f.mem[0x180] != 3 {
		t.Errorf("memory state wrong after membar: %v", f.mem)
	}
}

func TestCPUBlockingOpStallsFetch(t *testing.T) {
	// A blocking load's value gates the next op via a dynamic program.
	f := newFakeCtrl(30)
	f.mem[0x500] = 7
	prog := &dependentProg{}
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, prog)
	runCPU(t, c, f, 100000)
	if prog.sawValue != 7 {
		t.Errorf("program saw blocking value %d, want 7", prog.sawValue)
	}
	if f.mem[0x508] != 8 {
		t.Errorf("dependent store wrote %d, want 8", f.mem[0x508])
	}
}

// dependentProg loads 0x500 (blocking), then stores value+1 to 0x508.
type dependentProg struct {
	pos      int
	sawValue mem.Word
}

func (p *dependentProg) Next(prev Result) (Op, bool) {
	switch p.pos {
	case 0:
		p.pos++
		return Op{Kind: OpLoad, Addr: 0x500, Blocking: true}, true
	case 1:
		if !prev.Valid {
			panic("blocking value not delivered")
		}
		p.sawValue = prev.Value
		p.pos++
		return Op{Kind: OpStore, Addr: 0x508, Data: prev.Value + 1}, true
	default:
		return Op{}, false
	}
}
func (p *dependentProg) Snapshot(any) any { return *p }
func (p *dependentProg) Restore(s any)    { *p = s.(dependentProg) }

func TestCPURMWBlockingValue(t *testing.T) {
	f := newFakeCtrl(10)
	f.mem[0x600] = 5
	prog := &rmwProg{}
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, prog)
	runCPU(t, c, f, 100000)
	if prog.old != 5 {
		t.Errorf("RMW old = %d, want 5", prog.old)
	}
	if f.mem[0x600] != 6 {
		t.Errorf("RMW result = %d, want 6", f.mem[0x600])
	}
}

type rmwProg struct {
	pos int
	old mem.Word
}

func (p *rmwProg) Next(prev Result) (Op, bool) {
	switch p.pos {
	case 0:
		p.pos++
		return Op{Kind: OpRMW, Addr: 0x600, RMW: func(o mem.Word) mem.Word { return o + 1 }, Blocking: true}, true
	case 1:
		p.old = prev.Value
		p.pos++
		return Op{}, false
	default:
		return Op{}, false
	}
}
func (p *rmwProg) Snapshot(any) any { return *p }
func (p *rmwProg) Restore(s any)    { *p = s.(rmwProg) }

func TestCPUDVMCCleanRunNoViolations(t *testing.T) {
	for _, model := range consistency.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			f := newFakeCtrl(5)
			var ops []Op
			for i := 0; i < 200; i++ {
				a := mem.Addr(0x1000 + 8*(i%32))
				if i%3 == 0 {
					ops = append(ops, st(a, mem.Word(i)))
				} else {
					ops = append(ops, ld(a))
				}
				if model == consistency.RMO && i%50 == 49 {
					ops = append(ops, mb(consistency.FullMask))
				}
			}
			var sink core.CollectorSink
			c := NewCPU(0, testProcCfg(), model, f, NewScript(ops))
			c.AttachDVMC(core.NewUniprocChecker(0, 64, model == consistency.RMO, &sink),
				core.NewReorderChecker(0, &sink))
			runCPU(t, c, f, 1000000)
			if sink.Count() != 0 {
				t.Fatalf("clean %v run produced violations: %v", model, sink.Violations[0])
			}
		})
	}
}

func TestCPUDVMCReplayUsesVCForForwardedLoads(t *testing.T) {
	// A load forwarded from the write buffer must replay against the VC
	// (the store is committed but unperformed), not the cache.
	f := newFakeCtrl(50)
	ops := []Op{st(0x700, 9), ld(0x700)}
	var sink core.CollectorSink
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, NewScript(ops))
	uo := core.NewUniprocChecker(0, 64, false, &sink)
	c.AttachDVMC(uo, core.NewReorderChecker(0, &sink))
	runCPU(t, c, f, 100000)
	if sink.Count() != 0 {
		t.Fatalf("violations: %v", sink.Violations)
	}
	if uo.Stats().VCHits == 0 {
		t.Error("replay never hit the VC")
	}
}

func TestCPUDVMCDetectsWBReorder(t *testing.T) {
	// Injected write-buffer reordering under TSO violates Store→Store
	// ordering; the Allowable Reordering checker must fire.
	f := newFakeCtrl(10)
	ops := []Op{st(0x100, 1), st(0x140, 2), st(0x180, 3), ld(0x100)}
	var sink core.CollectorSink
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, NewScript(ops))
	c.AttachDVMC(core.NewUniprocChecker(0, 64, false, &sink), core.NewReorderChecker(0, &sink))
	c.WriteBuffer().(*InOrderWB).InjectReorder()
	runCPU(t, c, f, 100000)
	found := false
	for _, v := range sink.Violations {
		if v.Kind == core.ReorderViolation {
			found = true
		}
	}
	if !found {
		t.Fatalf("WB reorder not detected: %v", sink.Violations)
	}
}

func TestCPUDVMCDetectsWBCorruption(t *testing.T) {
	f := newFakeCtrl(10)
	ops := []Op{st(0x100, 1), st(0x140, 2)}
	var sink core.CollectorSink
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, NewScript(ops))
	c.AttachDVMC(core.NewUniprocChecker(0, 64, false, &sink), core.NewReorderChecker(0, &sink))
	c.WriteBuffer().(*InOrderWB).InjectCorruptNext() // the first store drains next
	runCPU(t, c, f, 100000)
	found := false
	for _, v := range sink.Violations {
		if v.Kind == core.UOStoreMismatch {
			found = true
		}
	}
	if !found {
		t.Fatalf("WB corruption not detected: %v", sink.Violations)
	}
}

func TestCPUDVMCDetectsDroppedStore(t *testing.T) {
	// A dropped store is caught by the lost-operation check at the next
	// membar (injected membars bound the latency).
	f := newFakeCtrl(10)
	cfg := testProcCfg()
	cfg.MembarInjectionInterval = 500
	var ops []Op
	ops = append(ops, st(0x100, 1), st(0x140, 2))
	for i := 0; i < 200; i++ {
		op := ld(0x100)
		op.Gap = 16 // keep the program running past the injection point
		ops = append(ops, op)
	}
	var sink core.CollectorSink
	c := NewCPU(0, cfg, consistency.TSO, f, NewScript(ops))
	c.AttachDVMC(core.NewUniprocChecker(0, 64, false, &sink), core.NewReorderChecker(0, &sink))
	var k sim.Kernel
	k.Register(f)
	k.Register(c)
	if !k.RunUntil(func() bool { return f.stores == 1 }, 100000) {
		t.Fatal("the first store never started draining")
	}
	c.WriteBuffer().(*InOrderWB).InjectDropNext() // the second store drains next
	if !k.RunUntil(c.Finished, 100000) {
		t.Fatalf("CPU did not finish: %v", c)
	}
	found := false
	for _, v := range sink.Violations {
		if v.Kind == core.LostOperation {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped store not detected: %v", sink.Violations)
	}
}

func TestCPUDVMCSlowerThanBase(t *testing.T) {
	mkOps := func() []Op {
		var ops []Op
		for i := 0; i < 500; i++ {
			a := mem.Addr(0x1000 + 8*(i%64))
			if i%4 == 0 {
				ops = append(ops, st(a, mem.Word(i)))
			} else {
				ops = append(ops, ld(a))
			}
		}
		return ops
	}
	fBase := newFakeCtrl(3)
	base := NewCPU(0, testProcCfg(), consistency.TSO, fBase, NewScript(mkOps()))
	baseCycles := runCPU(t, base, fBase, 10000000)

	fDVMC := newFakeCtrl(3)
	var sink core.CollectorSink
	dv := NewCPU(0, testProcCfg(), consistency.TSO, fDVMC, NewScript(mkOps()))
	dv.AttachDVMC(core.NewUniprocChecker(0, 64, false, &sink), core.NewReorderChecker(0, &sink))
	dvCycles := runCPU(t, dv, fDVMC, 10000000)

	if dvCycles < baseCycles {
		t.Errorf("DVMC (%d cycles) faster than base (%d); verification stage missing?", dvCycles, baseCycles)
	}
	if float64(dvCycles) > 1.5*float64(baseCycles) {
		t.Errorf("DVMC overhead %.2fx exceeds plausible bounds", float64(dvCycles)/float64(baseCycles))
	}
}

func TestCPUSquashOnEpochEnd(t *testing.T) {
	// A speculative executed load must squash when its block's epoch
	// ends, and re-execute to get the new value.
	f := newFakeCtrl(5)
	f.mem[0x800] = 1
	f.perAddr[0x900] = 60 // long-latency head load keeps 0x800 un-retired
	slow := ld(0x900)
	fast := ld(0x800)
	c := NewCPU(0, testProcCfg(), consistency.TSO, f, NewScript([]Op{slow, fast}))
	var k sim.Kernel
	k.Register(f)
	k.Register(c)
	// Let the fast load execute while the slow head load is in flight.
	k.Run(20)
	// Invalidate 0x800's block (epoch end) and change memory.
	f.mem[0x800] = 2
	c.EpochEnd(mem.Addr(0x800).Block())
	if c.Stats().SpecSquashes != 1 {
		t.Fatalf("SpecSquashes = %d, want 1", c.Stats().SpecSquashes)
	}
	if !k.RunUntil(c.Finished, 100000) {
		t.Fatal("did not finish after squash")
	}
	if c.Stats().LoadsExecuted < 3 {
		t.Errorf("LoadsExecuted = %d; squashed load did not re-execute", c.Stats().LoadsExecuted)
	}
}

func TestCPUScriptSnapshotRestore(t *testing.T) {
	s := NewScript([]Op{ld(1 * 8), ld(2 * 8), ld(3 * 8)})
	snap := s.Snapshot(nil)
	op1, _ := s.Next(Result{})
	s.Restore(snap)
	op1again, _ := s.Next(Result{})
	if op1.Addr != op1again.Addr {
		t.Error("Restore did not rewind the script")
	}
}

// TestFenceUnionOrdersLoads pins what executeStage relies on when it
// ORs the masks of every older unperformed membar into one fence: under
// every model, a membar carrying the union of two masks orders a later
// load exactly when a membar carrying either mask does.
func TestFenceUnionOrdersLoads(t *testing.T) {
	load := consistency.Op{Class: consistency.Load}
	fence := func(m consistency.MembarMask) consistency.Op {
		return consistency.Op{Class: consistency.Membar, Mask: m}
	}
	for _, model := range []consistency.Model{consistency.SC, consistency.TSO, consistency.PSO, consistency.RMO, consistency.PC} {
		table := consistency.TableFor(model)
		for a := consistency.MembarMask(0); a <= consistency.FullMask; a++ {
			for b := consistency.MembarMask(0); b <= consistency.FullMask; b++ {
				if got, want := table.Ordered(fence(a|b), load), table.Ordered(fence(a), load) || table.Ordered(fence(b), load); got != want {
					t.Errorf("%v: membar %#x|%#x orders a load = %v, either alone = %v", model, a, b, got, want)
				}
			}
		}
	}
}

// TestCPUConfigValidate rejects each out-of-range field of an otherwise
// default config with an error that names the field, and accepts the
// default.
func TestCPUConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		field string // named by the error; "" for a valid config
		edit  func(*Config)
	}{
		{"", func(*Config) {}},
		{"ROBInstrs", func(c *Config) { c.ROBInstrs = 0 }},
		{"WBEntries", func(c *Config) { c.WBEntries = -1 }},
		{"VCWords", func(c *Config) { c.VCWords = 0 }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		err := cfg.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("default config rejected: %v", err)
		case tc.field != "" && err == nil:
			t.Errorf("%s out of range accepted", tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field):
			t.Errorf("%s out of range: error %q does not name it", tc.field, err)
		}
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config accepted")
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpLoad.String() != "load" || OpStore.String() != "store" ||
		OpRMW.String() != "rmw" || OpMembar.String() != "membar" {
		t.Error("OpKind strings wrong")
	}
	if OpLoad.Class() != consistency.Load || OpStore.Class() != consistency.Store ||
		OpRMW.Class() != consistency.Store || OpMembar.Class() != consistency.Membar {
		t.Error("OpKind classes wrong")
	}
}
