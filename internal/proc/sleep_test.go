package proc

import (
	"reflect"
	"testing"

	"dvmc/internal/consistency"
	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// holdCtrl is a fakeCtrl that parks the completions the test selects
// until release, so a test decides on which cycle a miss comes back.
type holdCtrl struct {
	*fakeCtrl
	hold   func(addr mem.Addr, class network.Class, store bool) bool
	parked []func()
}

func (h *holdCtrl) Load(addr mem.Addr, class network.Class, done func(mem.Word, bool)) {
	if h.hold != nil && h.hold(addr, class, false) {
		h.parked = append(h.parked, func() { done(h.mem[addr], false) })
		return
	}
	h.fakeCtrl.Load(addr, class, done)
}

func (h *holdCtrl) Store(addr mem.Addr, val mem.Word, done func()) {
	if h.hold != nil && h.hold(addr, network.ClassCoherence, true) {
		h.parked = append(h.parked, func() { h.mem[addr] = val; done() })
		return
	}
	h.fakeCtrl.Store(addr, val, done)
}

func (h *holdCtrl) release() {
	p := h.parked
	h.parked = nil
	for _, fn := range p {
		fn()
	}
}

// alwaysDue keeps the Slot of the twin it wraps; the twin tests wake it
// before every Step, so the kernel calls the twin every cycle.
type alwaysDue struct {
	sim.Scheduled
	slot sim.Slot
}

func (a *alwaysDue) Attach(s sim.Slot) {
	a.slot = s
	a.Scheduled.Attach(s)
}

// counting counts the kernel's calls to the component it wraps.
type counting struct {
	sim.Scheduled
	calls int
}

func (c *counting) Tick(now sim.Cycle) {
	c.calls++
	c.Scheduled.Tick(now)
}

// twins runs one program on two cores, each registered after its
// controller in a kernel of its own, the kernels stepped in lockstep.
// cores[0] is called only when the due cycle it published comes, as in a
// system; cores[1] is reached through alwaysDue and has its wake mark
// forced before every Step, so it runs the pipeline every cycle as every
// core did before cores could sleep. After each cycle the two must be
// indistinguishable.
type twins struct {
	t      *testing.T
	ks     [2]*sim.Kernel
	cores  [2]*CPU
	ctrls  [2]*holdCtrl
	sinks  [2]*core.CollectorSink
	sleepy *counting
	// sleptTicks counts cycles the kernel did not call cores[0]; a test
	// that never put the core to sleep tested nothing.
	sleptTicks int

	// fresh makes cores[1] the twin of the recycling tests instead
	// (recycle_test.go): it is not woken, it never recycles a uop.
	fresh bool
	// lives counts, per uop of cores[0], the ops it has carried.
	lives map[*uop]uint64
	// reused counts uops of cores[0] seen carrying a second op.
	reused int
}

type twinOpts struct {
	model    consistency.Model
	cfg      Config
	dvmc     bool
	watchdog sim.Cycle // 0: leave the default
	hold     func(addr mem.Addr, class network.Class, store bool) bool
	prog     func() Program
}

func newTwins(t *testing.T, o twinOpts) *twins {
	t.Helper()
	tw := &twins{t: t}
	for i := range tw.cores {
		h := &holdCtrl{fakeCtrl: newFakeCtrl(3), hold: o.hold}
		c := NewCPU(0, o.cfg, o.model, h, o.prog())
		tw.sinks[i] = &core.CollectorSink{}
		if o.dvmc {
			c.AttachDVMC(core.NewUniprocChecker(0, o.cfg.VCWords, o.model == consistency.RMO, tw.sinks[i]),
				core.NewReorderChecker(0, tw.sinks[i]))
		}
		if o.watchdog != 0 {
			c.watchdogCycles = o.watchdog
		}
		k := sim.NewKernel(2)
		k.Register(h)
		if i == 0 {
			tw.sleepy = &counting{Scheduled: c}
			k.Register(tw.sleepy)
		} else {
			k.Register(&alwaysDue{Scheduled: c})
		}
		tw.ks[i], tw.cores[i], tw.ctrls[i] = k, c, h
	}
	return tw
}

// now is the cycle the next step runs.
func (tw *twins) now() sim.Cycle { return tw.ks[0].Now() }

// both applies the same stimulus to both cores, between two cycles.
func (tw *twins) both(fn func(c *CPU, h *holdCtrl)) {
	for i := range tw.cores {
		fn(tw.cores[i], tw.ctrls[i])
	}
}

// cpuView is everything about a core another component, a reader or its
// own next tick can tell apart.
type cpuView struct {
	Stats                          Stats
	ROB                            []uop
	Instrs, PendingGap             int
	SeqNext, HeadSeq               uint64
	Now, FetchStallUntil           sim.Cycle
	LastInject, HeadSince, WBSince sim.Cycle
	Finished, Pending, Blocking    bool
	WatchdogFired, WBWatchdogFired bool
	DrainChecked                   bool
	WBLen                          int
	WBEmpty                        bool
	FaultLoad, FaultFwd, FaultDid  bool
	FaultAt                        sim.Cycle
	Violations                     []core.Violation
}

func (tw *twins) view(i int) cpuView {
	c := tw.cores[i]
	v := cpuView{
		Stats:  c.Stats(), // settles a sleeping core's counters and stamps
		Instrs: c.instrs, PendingGap: c.pendingGap,
		SeqNext: c.seqNext, HeadSeq: c.headSeq,
		Now: c.lastTick(), FetchStallUntil: c.fetchStallUntil,
		LastInject: c.lastInject, HeadSince: c.headSince, WBSince: c.wbProgressAt,
		Finished: c.finished, Pending: c.pendingOp != nil, Blocking: c.blockingOp != nil,
		WatchdogFired: c.watchdogFired, WBWatchdogFired: c.wbWatchdogFired,
		DrainChecked: c.drainChecked,
		WBLen:        c.WBLen(), WBEmpty: c.wbEmpty(),
		FaultLoad: c.faultLoadValue, FaultFwd: c.faultForward, FaultDid: c.faultDidActivate,
		FaultAt:    c.faultActivated,
		Violations: tw.sinks[i].Violations,
	}
	for _, u := range c.rob {
		cp := *u
		cp.op.RMW = nil // not comparable
		// Nor is what a uop keeps across lives: its owner, callbacks, buffer.
		cp.cpu, cp.snapBuf, cp.onLoad, cp.onReplay, cp.onStore, cp.onRMW = nil, nil, nil, nil, nil, nil
		cp.inflight %= pinned
		v.ROB = append(v.ROB, cp)
	}
	return v
}

// step runs one cycle on both cores and compares them.
func (tw *twins) step() {
	tw.t.Helper()
	now, calls := tw.now(), tw.sleepy.calls
	if !tw.fresh {
		tw.cores[1].wake()
	}
	for _, k := range tw.ks {
		k.Step()
	}
	if tw.sleepy.calls == calls {
		tw.sleptTicks++
	}
	if tw.fresh {
		tw.trackLives()
	}
	if a, b := tw.view(0), tw.view(1); !reflect.DeepEqual(a, b) {
		tw.t.Fatalf("cycle %d: the core diverged from its twin\n core %+v\n twin %+v", now, a, b)
	}
}

func (tw *twins) run(cycles int) {
	tw.t.Helper()
	for i := 0; i < cycles; i++ {
		tw.step()
	}
}

// asleep fails the test unless cores[0] is asleep with no timer due
// before at least `until`.
func (tw *twins) asleep() {
	tw.t.Helper()
	if c := tw.cores[0]; c.awake || c.wakeAt <= tw.now() {
		tw.t.Fatalf("cycle %d: core is not asleep (awake=%v wakeAt=%d): %v", tw.now(), c.awake, c.wakeAt, c)
	}
}

func (tw *twins) finish(budget int) {
	tw.t.Helper()
	for i := 0; i < budget && !(tw.cores[0].Finished() && tw.cores[1].Finished()); i++ {
		tw.step()
	}
	if !tw.cores[0].Finished() {
		tw.t.Fatalf("program did not finish within %d cycles: %v", budget, tw.cores[0])
	}
	if tw.sleptTicks == 0 {
		tw.t.Fatal("the core never slept: the test exercised no wake path")
	}
}

func script(ops ...Op) func() Program { return func() Program { return NewScript(ops) } }

func holdAddr(a mem.Addr, class network.Class) func(mem.Addr, network.Class, bool) bool {
	return func(addr mem.Addr, c network.Class, store bool) bool { return addr == a && c == class && !store }
}

func holdStores(addr mem.Addr, _ network.Class, store bool) bool { return store }

// TestWakeOnLoadCompletion: a core asleep behind a demand miss resumes
// on the cycle the load comes back.
func TestWakeOnLoadCompletion(t *testing.T) {
	for _, model := range consistency.Models {
		t.Run(model.String(), func(t *testing.T) {
			tw := newTwins(t, twinOpts{model: model, cfg: testProcCfg(), dvmc: true,
				hold: holdAddr(0x1000, network.ClassCoherence),
				prog: script(ld(0x1000), st(0x2000, 7), ld(0x2000), ld(0x3000))})
			tw.run(60)
			tw.asleep()
			tw.both(func(_ *CPU, h *holdCtrl) { h.release() })
			tw.finish(500)
		})
	}
}

// TestWakeOnReplayCompletion: the demand load completes, its VC-miss
// replay is held, and the core sleeps at the verification stage.
func TestWakeOnReplayCompletion(t *testing.T) {
	tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: testProcCfg(), dvmc: true,
		hold: holdAddr(0x1000, network.ClassReplay),
		prog: script(ld(0x1000), ld(0x1040), st(0x1080, 1))})
	tw.run(80)
	tw.asleep()
	if len(tw.ctrls[0].parked) != 1 {
		t.Fatalf("%d completions parked, want the one replay", len(tw.ctrls[0].parked))
	}
	tw.both(func(_ *CPU, h *holdCtrl) { h.release() })
	tw.finish(500)
}

// TestWakeOnWriteBufferDrain: a membar waits for the write buffer; every
// cycle of the wait is a MembarStall, slept or not.
func TestWakeOnWriteBufferDrain(t *testing.T) {
	for _, model := range []consistency.Model{consistency.TSO, consistency.RMO} {
		t.Run(model.String(), func(t *testing.T) {
			tw := newTwins(t, twinOpts{model: model, cfg: testProcCfg(), dvmc: true, hold: holdStores,
				prog: script(st(0x1000, 1), mb(consistency.FullMask), ld(0x2000))})
			tw.run(200)
			tw.asleep()
			if got := tw.cores[0].Stats().MembarStalls; got < 150 {
				t.Fatalf("MembarStalls = %d after a 200-cycle drain wait, want the slept cycles counted", got)
			}
			tw.both(func(_ *CPU, h *holdCtrl) { h.release() })
			tw.finish(500)
		})
	}
}

// TestSleepingStallCountersSettle: a full write buffer and a full VC
// stall retirement; the counters a sleeping core reports match the twin
// on every cycle (the per-cycle comparison in step).
func TestSleepingStallCountersSettle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wb, vc int
		stat   func(Stats) uint64
	}{
		{"wb-full", 2, 64, func(s Stats) uint64 { return s.WBFullStalls }},
		{"vc-full", 16, 2, func(s Stats) uint64 { return s.VCFullStalls }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testProcCfg()
			cfg.WBEntries, cfg.VCWords = tc.wb, tc.vc
			tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: cfg, dvmc: true, hold: holdStores,
				prog: script(st(0x1000, 1), st(0x1040, 2), st(0x1080, 3), st(0x10c0, 4), st(0x1100, 5))})
			tw.run(300)
			tw.asleep()
			if got := tc.stat(tw.cores[0].Stats()); got < 200 {
				t.Fatalf("stall counter = %d after 300 stalled cycles", got)
			}
			for i := 0; i < 8; i++ { // one store drains per release
				tw.both(func(_ *CPU, h *holdCtrl) { h.release() })
				tw.run(20)
			}
			tw.finish(500)
		})
	}
}

// TestWakeOnEpochEndSquash: an invalidation squashes a speculative load
// of a sleeping core; fetch restarts after the squash penalty (a timer).
func TestWakeOnEpochEndSquash(t *testing.T) {
	tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: testProcCfg(), dvmc: true,
		hold: holdAddr(0x1000, network.ClassCoherence),
		prog: script(ld(0x1000), ld(0x2000), st(0x3000, 9))})
	tw.run(60)
	tw.asleep()
	squashes := tw.cores[0].Stats().SpecSquashes
	tw.both(func(c *CPU, _ *holdCtrl) { c.EpochEnd(mem.Addr(0x2000).Block()) })
	if tw.cores[0].Stats().SpecSquashes != squashes+1 {
		t.Fatal("EpochEnd did not squash the speculative load")
	}
	tw.run(40) // refetch and re-execute 0x2000; the head load is still out
	tw.asleep()
	tw.both(func(_ *CPU, h *holdCtrl) { h.release() })
	tw.finish(500)
}

// TestWakeOnRecover: SafetyNet rolls a sleeping core back.
func TestWakeOnRecover(t *testing.T) {
	tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: testProcCfg(), dvmc: true,
		hold: holdAddr(0x1000, network.ClassCoherence),
		prog: script(st(0x2000, 1), ld(0x1000), ld(0x2000))})
	var start [2]ArchState
	for i, c := range tw.cores {
		start[i] = c.ArchSnapshot()
	}
	tw.run(60)
	tw.asleep()
	i := 0
	tw.both(func(c *CPU, h *holdCtrl) {
		h.hold, h.parked = nil, nil // the recovered run does not miss
		c.uo.Reset()
		c.reorder.Reset()
		c.Recover(start[i])
		i++
	})
	tw.finish(500)
	// The store retired before the rollback and again after it.
	if got := tw.cores[0].Stats().OpsRetired; got != 1+3 {
		t.Fatalf("OpsRetired = %d after recovery to the start, want 4", got)
	}
}

// TestWakeOnInjectedLSQFault: a fault armed while the core sleeps
// corrupts the load that completes next, on the same cycle as the twin's.
func TestWakeOnInjectedLSQFault(t *testing.T) {
	t.Run("load-value", func(t *testing.T) {
		tw := newTwins(t, twinOpts{model: consistency.RMO, cfg: testProcCfg(), dvmc: true,
			hold: holdAddr(0x1000, network.ClassCoherence),
			prog: script(ld(0x1000), ld(0x1000))})
		tw.run(60)
		tw.asleep()
		tw.both(func(c *CPU, _ *holdCtrl) { c.InjectLoadValueFault() })
		tw.run(5)
		tw.both(func(_ *CPU, h *holdCtrl) {
			h.hold = nil // the refetch after the caught corruption must not park
			h.release()
		})
		tw.finish(500)
		if _, ok := tw.cores[0].FaultActivatedAt(); !ok {
			t.Fatal("armed load-value fault never activated")
		}
	})
	t.Run("forward", func(t *testing.T) {
		tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: testProcCfg(), dvmc: true,
			hold: holdAddr(0x1000, network.ClassCoherence),
			prog: script(ld(0x1000), st(0x2000, 5), ld(0x2000))})
		tw.both(func(c *CPU, _ *holdCtrl) { c.InjectForwardFault() })
		tw.run(60)
		tw.asleep()
		tw.both(func(_ *CPU, h *holdCtrl) { h.release() })
		tw.finish(500)
		if _, ok := tw.cores[0].FaultActivatedAt(); !ok {
			t.Fatal("armed forwarding fault never activated")
		}
	})
}

// TestWakeOnMembarInjectionInterval: an idle core wakes itself to inject
// the lost-operation membars, on the interval's cycle.
func TestWakeOnMembarInjectionInterval(t *testing.T) {
	cfg := testProcCfg()
	cfg.MembarInjectionInterval = 700
	tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: cfg, dvmc: true,
		prog: script(st(0x1000, 1), ld(0x2000))})
	tw.run(3000)
	if got := tw.cores[0].Stats().InjectedMembars; got != 4 {
		t.Fatalf("InjectedMembars = %d over 3000 cycles at interval 700, want 4", got)
	}
	if tw.sleptTicks < 2500 {
		t.Fatalf("core slept only %d of 3000 cycles", tw.sleptTicks)
	}
}

// TestWatchdogFiresOnItsCycle: both watchdog deadlines are timers of a
// sleeping core; operation-timeout fires on the cycle it always did.
func TestWatchdogFiresOnItsCycle(t *testing.T) {
	const watchdog = 400
	t.Run("retire-head", func(t *testing.T) {
		tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: testProcCfg(), dvmc: true, watchdog: watchdog,
			hold: holdAddr(0x1000, network.ClassCoherence),
			prog: script(ld(0x1000))})
		tw.run(1000)
		vs := tw.sinks[0].Violations
		if len(vs) != 1 || vs[0].Kind != core.OperationTimeout {
			t.Fatalf("violations = %v, want one operation-timeout", vs)
		}
		// The head is first seen at retire on cycle 1 and is stuck once
		// more than watchdog cycles have passed.
		if want := sim.Cycle(1 + watchdog + 1); vs[0].Cycle != want {
			t.Fatalf("operation-timeout at cycle %d, want %d", vs[0].Cycle, want)
		}
		if tw.sleptTicks < 900 {
			t.Fatalf("core slept only %d of 1000 cycles", tw.sleptTicks)
		}
	})
	t.Run("write-buffer", func(t *testing.T) {
		tw := newTwins(t, twinOpts{model: consistency.TSO, cfg: testProcCfg(), dvmc: true, watchdog: watchdog,
			hold: holdStores,
			prog: script(st(0x1000, 1), st(0x1040, 2))})
		tw.run(1000)
		vs := tw.sinks[0].Violations
		if len(vs) != 1 || vs[0].Kind != core.OperationTimeout {
			t.Fatalf("violations = %v, want one operation-timeout", vs)
		}
		if tw.sleptTicks < 900 {
			t.Fatalf("core slept only %d of 1000 cycles", tw.sleptTicks)
		}
	})
}

// TestTwinsOnRandomPrograms runs longer mixed programs through cache
// latencies drawn per address, so sleeps of every length and stall
// reason interleave; the per-cycle comparison does the checking.
func TestTwinsOnRandomPrograms(t *testing.T) {
	for _, model := range consistency.Models {
		t.Run(model.String(), func(t *testing.T) {
			rng := sim.NewRand(uint64(model) + 11)
			var ops []Op
			for i := 0; i < 600; i++ {
				a := mem.Addr(0x1000 + 8*rng.Intn(96))
				switch r := rng.Intn(20); {
				case r < 10:
					ops = append(ops, ld(a))
				case r < 17:
					ops = append(ops, st(a, mem.Word(i)))
				case r < 18:
					ops = append(ops, Op{Kind: OpRMW, Addr: a, RMW: func(o mem.Word) mem.Word { return o + 1 }})
				default:
					ops = append(ops, mb(consistency.FullMask))
				}
				ops[len(ops)-1].Gap = rng.Intn(6)
			}
			cfg := testProcCfg()
			cfg.MembarInjectionInterval = 900
			cfg.WBEntries, cfg.VCWords = 4, 8
			tw := newTwins(t, twinOpts{model: model, cfg: cfg, dvmc: true, prog: script(ops...)})
			tw.both(func(_ *CPU, h *holdCtrl) {
				lat := sim.NewRand(5)
				for i := 0; i < 96; i++ {
					h.perAddr[mem.Addr(0x1000+8*i)] = sim.Cycle(1 + lat.Intn(4)*lat.Intn(60))
				}
			})
			tw.finish(200_000)
			if n := len(tw.sinks[0].Violations); n != 0 {
				t.Fatalf("%d violations in a fault-free run: %v", n, tw.sinks[0].Violations[0])
			}
		})
	}
}

// TestCPUIdleTickSteadyStateAllocFree: a cycle of a sleeping core — the
// kernel's step past it, and its Tick should something wake it without
// work — allocates nothing, and a settle accounts the skipped cycles.
func TestCPUIdleTickSteadyStateAllocFree(t *testing.T) {
	h := &holdCtrl{fakeCtrl: newFakeCtrl(3), hold: holdAddr(0x1000, network.ClassCoherence)}
	c := NewCPU(0, testProcCfg(), consistency.TSO, h, NewScript([]Op{ld(0x1000)}))
	k := sim.NewKernel(2)
	k.Register(h)
	cc := &counting{Scheduled: c}
	k.Register(cc)
	k.Run(50)
	if c.awake {
		t.Fatal("core is not asleep behind the held miss")
	}
	calls := cc.calls
	if allocs := testing.AllocsPerRun(1000, k.Step); allocs != 0 {
		t.Errorf("sleeping core's cycle: %.2f allocs/op, want 0", allocs)
	}
	if cc.calls != calls {
		t.Fatalf("the kernel called a sleeping core %d times", cc.calls-calls)
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Tick(k.Now()) }); allocs != 0 {
		t.Errorf("sleeping Tick: %.2f allocs/op, want 0", allocs)
	}
	c.Stats()
	if c.accounted != uint64(k.Now()) {
		t.Fatalf("Stats settled %d ticks of %d", c.accounted, k.Now())
	}
}
