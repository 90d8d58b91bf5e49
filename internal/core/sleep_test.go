package core

import (
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

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

// seqClock is the snooping logical clock without the snooping system: a
// sequence that advances from its own tick, which comes before the
// checkers', every 1 to 12 cycles (drawn from its own stream), and wakes
// its subscribers when it does, as the broadcast tree's deliveries do.
// quiet stops it: an idle bus.
type seqClock struct {
	seq   uint64
	subs  []sim.Slot
	slot  sim.Slot
	rng   *sim.Rand
	next  sim.Cycle
	quiet bool
}

func (c *seqClock) LogicalNow() uint64       { return c.seq }
func (c *seqClock) WakeOnAdvance(s sim.Slot) { c.subs = append(c.subs, s) }
func (c *seqClock) Attach(s sim.Slot)        { c.slot = s }

func (c *seqClock) Tick(now sim.Cycle) {
	if !c.quiet && now >= c.next {
		c.seq++
		for _, s := range c.subs {
			s.Wake()
		}
		c.next = now + sim.Cycle(1+c.rng.Intn(12))
	}
	if c.quiet {
		c.slot.SleepUntil(sim.Never)
	} else {
		c.slot.SleepUntil(c.next)
	}
}

// checkerTwins drives two CET+MET pairs with the same epochs, each pair
// registered in a kernel of its own (clock, MET, CET, the system's order),
// the kernels stepped in lockstep. The first pair is called only when the
// due cycles it published come. The twin pair's slots are woken and its
// due cycles zeroed before every Step, so it reads the clock and looks at
// its queues every cycle, as the checkers did before they could sleep.
// Their counters, queue depths and violations must agree after every
// cycle.
type checkerTwins struct {
	t      *testing.T
	ks     [2]*sim.Kernel
	clocks [2]coherence.LogicalClock
	cets   [2]*CacheChecker
	mets   [2]*MemChecker
	sinks  [2]*CollectorSink
	// metCalls and cetCalls wrap the first pair; always wraps the twins.
	metCalls, cetCalls *counting
	always             [2]*alwaysDue
	// skipped counts cycles the first MET and CET held work and were not
	// called.
	metSkipped, cetSkipped int
}

// newCheckerTwins builds the pairs on clocks made by clock, which may
// register a component of its own, and runs the kernels to cycle start.
func newCheckerTwins(t *testing.T, start sim.Cycle, clock func(k *sim.Kernel) coherence.LogicalClock) *checkerTwins {
	tw := &checkerTwins{t: t}
	for i := range tw.ks {
		k := sim.NewKernel(3)
		tw.ks[i], tw.clocks[i] = k, clock(k)
		tw.sinks[i] = &CollectorSink{}
		tw.mets[i] = NewMemChecker(0, testCfg(), tw.clocks[i], k.Now, tw.sinks[i])
		tw.cets[i] = NewCacheChecker(1, testCfg(), &fakeNet{to: tw.mets[i]}, tw.clocks[i], k.Now, tw.sinks[i])
		if i == 0 {
			tw.metCalls, tw.cetCalls = &counting{Scheduled: tw.mets[i]}, &counting{Scheduled: tw.cets[i]}
			k.Register(tw.metCalls)
			k.Register(tw.cetCalls)
		} else {
			tw.always = [2]*alwaysDue{{Scheduled: tw.mets[i]}, {Scheduled: tw.cets[i]}}
			k.Register(tw.always[0])
			k.Register(tw.always[1])
		}
		for k.Now() < start {
			k.Step()
		}
	}
	return tw
}

// skewedTwins runs the pairs on the directory system's SkewedClock.
func skewedTwins(t *testing.T, start sim.Cycle, div uint64) *checkerTwins {
	return newCheckerTwins(t, start, func(k *sim.Kernel) coherence.LogicalClock {
		return coherence.NewSkewedClock(k.Now, 3, div)
	})
}

// seqTwins runs the pairs on a seqClock.
func seqTwins(t *testing.T) *checkerTwins {
	return newCheckerTwins(t, 0, func(k *sim.Kernel) coherence.LogicalClock {
		c := &seqClock{rng: sim.NewRand(23)}
		k.Register(c)
		return c
	})
}

func (tw *checkerTwins) both(fn func(cet *CacheChecker, met *MemChecker, clock coherence.LogicalClock)) {
	for i := range tw.cets {
		fn(tw.cets[i], tw.mets[i], tw.clocks[i])
	}
}

func (tw *checkerTwins) now() sim.Cycle { return tw.ks[0].Now() }

type checkerView struct {
	CET        CETStats
	MET        METStats
	Queue      int
	Scrub      int
	Violations int
}

func (tw *checkerTwins) view(i int) checkerView {
	return checkerView{tw.cets[i].Stats(), tw.mets[i].Stats(), tw.mets[i].QueueDepth(),
		tw.cets[i].ScrubQueueLen(), tw.sinks[i].Count()}
}

func (tw *checkerTwins) step() {
	tw.t.Helper()
	metWork, cetWork := tw.mets[0].QueueDepth() > 0, tw.cets[0].ScrubQueueLen() > 0
	metCalls, cetCalls := tw.metCalls.calls, tw.cetCalls.calls
	tw.mets[1].due, tw.cets[1].due = 0, 0
	for _, a := range tw.always {
		a.slot.Wake()
	}
	for _, k := range tw.ks {
		k.Step()
	}
	if metWork && tw.metCalls.calls == metCalls {
		tw.metSkipped++
	}
	if cetWork && tw.cetCalls.calls == cetCalls {
		tw.cetSkipped++
	}
	if a, b := tw.view(0), tw.view(1); a != b {
		tw.t.Fatalf("cycle %d (logical %d): sleeping checkers diverged from their twins\n sleeping %+v\n twin     %+v",
			tw.now()-1, tw.clocks[0].LogicalNow(), a, b)
	}
}

func (tw *checkerTwins) run(cycles int) {
	tw.t.Helper()
	for i := 0; i < cycles; i++ {
		tw.step()
	}
}

// begin opens an epoch on block b in both pairs, beginning at logical
// time at (now when at is 0).
func (tw *checkerTwins) begin(b mem.BlockAddr, kind coherence.EpochKind, at uint64, known bool) {
	tw.both(func(cet *CacheChecker, met *MemChecker, clock coherence.LogicalClock) {
		if at == 0 {
			at = clock.LogicalNow()
		}
		met.BlockRequested(b, blockData(0))
		cet.EpochBegin(b, kind, at, known, blockData(0))
	})
}

// churn opens and closes Read-Write epochs on a rotating set of blocks,
// one event every `every` cycles. An epoch shorter than the MET's settle
// window leaves its inform waiting in the queue; one more block toggles
// 97 times slower, so its inform sorts ahead of everything waiting.
func (tw *checkerTwins) churn(cycles, every int) {
	tw.t.Helper()
	const blocks = 12
	open := [blocks + 1]bool{}
	data := [blocks + 1]mem.Word{}
	for i := 0; i < cycles; i++ {
		if i%every == 0 {
			n := (i / every) % blocks
			if i%(every*97) == 0 {
				n = blocks
			}
			b := mem.BlockAddr(0x80 * (n + 1))
			tw.both(func(cet *CacheChecker, met *MemChecker, clock coherence.LogicalClock) {
				if !open[n] {
					met.BlockRequested(b, blockData(0))
					cet.EpochBegin(b, coherence.ReadWrite, clock.LogicalNow(), true, blockData(data[n]))
				} else {
					cet.EpochEnd(b, coherence.ReadWrite, clock.LogicalNow(), blockData(data[n]+1))
				}
			})
			if open[n] {
				data[n]++
			}
			open[n] = !open[n]
		}
		tw.step()
	}
}

// TestCheckerDueCyclesAcrossTime16Wrap: informs settle on the same
// cycles whether the checkers compare against a due cycle or read the
// clock every tick, with the 16-bit wire timestamps wrapping twice on
// the way. (The scrub FIFO overflows long before the threshold here; it
// announces the long-lived epoch on that path.)
func TestCheckerDueCyclesAcrossTime16Wrap(t *testing.T) {
	const div = 2
	tw := skewedTwins(t, (1<<16-400)*div, div)
	tw.begin(0x800, coherence.ReadOnly, 0, true)
	tw.churn((1<<17+2000)*div, 7)
	got := tw.view(0)
	if got.Violations != 0 {
		t.Fatalf("violations in a clean run: %v", tw.sinks[0].Violations[0])
	}
	if got.MET.InformsProcessed < 15_000 || got.CET.OpenInforms != 1 || got.MET.OpensProcessed != 1 {
		t.Fatalf("run did not exercise settling and scrubbing: %+v", got)
	}
	if tw.metSkipped < 100_000 || tw.cetSkipped < 200_000 {
		t.Fatalf("checkers skipped only %d (MET) and %d (CET) cycles holding work", tw.metSkipped, tw.cetSkipped)
	}
}

// TestScrubDueCycle: with few enough epochs that the scrub FIFO never
// overflows, the two long-lived epochs (block 0x800 and churn's slow
// block) are announced when they age past the scrub threshold, on the
// cycle the clock says so.
func TestScrubDueCycle(t *testing.T) {
	const div = 2
	tw := skewedTwins(t, 7, div)
	tw.begin(0x800, coherence.ReadOnly, 0, true)
	tw.churn((scrubThreshold+200)*div, 401)
	if got := tw.view(0); got.CET.OpenInforms != 2 || got.MET.OpensProcessed != 2 || got.Violations != 0 {
		t.Fatalf("long-lived epochs were not scrubbed once each: %+v", got)
	}
	if tw.cetSkipped < scrubThreshold*div-100 {
		t.Fatalf("CET skipped only %d cycles", tw.cetSkipped)
	}
}

// TestScrubDueCycleAfterRequeue: an old epoch still waiting for its data
// is re-queued behind a younger one, and comes back to the head when the
// FIFO overflows; its due cycle is long past, whatever the younger
// head's was.
func TestScrubDueCycleAfterRequeue(t *testing.T) {
	const div = 2
	tw := skewedTwins(t, 7, div)
	tw.begin(0x800, coherence.ReadOnly, 0, false)
	tw.run((scrubThreshold - 50) * div)
	tw.begin(0x880, coherence.ReadOnly, 0, true)
	tw.run(100 * div)                    // 0x800 ages out, is re-queued behind 0x880
	for n := 0; n < scrubFIFOSize; n++ { // overflow: 0x880 leaves, 0x800 heads the FIFO again
		tw.begin(mem.BlockAddr(0x1000+0x80*n), coherence.ReadOnly, 0, true)
		tw.step()
	}
	tw.both(func(cet *CacheChecker, _ *MemChecker, _ coherence.LogicalClock) { cet.EpochData(0x800, blockData(0)) })
	tw.run(200)
	if got := tw.view(0); got.Violations != 0 || got.MET.OpensProcessed < 2 {
		t.Fatalf("re-queued epoch was not announced: %+v", got)
	}
}

// TestCheckerDueCycleIsTheCycleWindow: with a slow logical clock the
// MET's cycle bound (4096 cycles in the queue) comes before the settle
// window does; the due cycle is the earlier of the two.
func TestCheckerDueCycleIsTheCycleWindow(t *testing.T) {
	tw := skewedTwins(t, 0, 64)
	tw.churn(40_000, 53)
	if got := tw.view(0); got.MET.InformsProcessed < 300 || got.Violations != 0 {
		t.Fatalf("run did not exercise the cycle window cleanly: %+v", got)
	}
	if tw.metSkipped < 20_000 {
		t.Fatalf("MET skipped only %d cycles", tw.metSkipped)
	}
}

// TestCheckerDueCyclesFollowInjectedSkew: a clock-skew fault moves
// logical time forward under waiting informs and an unscrubbed epoch;
// the due cycles move with it.
func TestCheckerDueCyclesFollowInjectedSkew(t *testing.T) {
	const div = 8
	tw := skewedTwins(t, 50_000, div)
	tw.begin(0x800, coherence.ReadOnly, 0, true)
	tw.churn(3_000, 7)
	processed, opens := tw.view(0).MET.InformsProcessed, tw.view(0).CET.OpenInforms
	tw.both(func(_ *CacheChecker, _ *MemChecker, clock coherence.LogicalClock) {
		clock.(*coherence.SkewedClock).InjectSkew((scrubThreshold + 10) * div)
	})
	tw.step()
	if got := tw.view(0); got.MET.InformsProcessed == processed || got.CET.OpenInforms == opens {
		t.Fatalf("the tick after the skew processed nothing: %+v", got)
	}
	tw.churn(3_000, 7)
}

// TestSequenceClockCheckersSleepBetweenAdvances: on the snooping
// sequence clock the checkers sleep until the sequence advances, an
// inform arrives, a scrub entry is pushed or the oldest inform outwaits
// the cycle window — across thousands of advances, scrubbing past the
// threshold, and an idle bus longer than the window.
func TestSequenceClockCheckersSleepBetweenAdvances(t *testing.T) {
	tw := seqTwins(t)
	tw.begin(0x800, coherence.ReadOnly, 0, true)
	tw.churn(150_000, 5)
	tw.both(func(_ *CacheChecker, _ *MemChecker, clock coherence.LogicalClock) { clock.(*seqClock).quiet = true })
	queued := tw.view(0).Queue
	tw.run(5000)
	got := tw.view(0)
	if queued == 0 || got.Queue != 0 {
		t.Fatalf("%d informs queued when the bus went idle, %d left after the cycle window", queued, got.Queue)
	}
	if got.Violations != 0 {
		t.Fatalf("violations in a clean run: %v", tw.sinks[0].Violations[0])
	}
	if got.MET.InformsProcessed < 10_000 || got.CET.OpenInforms == 0 {
		t.Fatalf("run did not exercise settling and scrubbing: %+v", got)
	}
	if tw.metSkipped < 50_000 || tw.cetSkipped < 50_000 {
		t.Fatalf("checkers skipped only %d (MET) and %d (CET) cycles holding work", tw.metSkipped, tw.cetSkipped)
	}
}

// TestSequenceClockOldBeginOnEmptyScrubFIFO: with the sequence stalled,
// an epoch pushed onto an empty scrub FIFO with a begin already past the
// threshold is announced on the next cycle, not at the next advance.
func TestSequenceClockOldBeginOnEmptyScrubFIFO(t *testing.T) {
	tw := seqTwins(t)
	tw.run(scrubThreshold * 12) // the sequence passes the threshold
	tw.both(func(_ *CacheChecker, _ *MemChecker, clock coherence.LogicalClock) { clock.(*seqClock).quiet = true })
	tw.run(10)
	lnow := tw.clocks[0].LogicalNow()
	if lnow <= scrubThreshold+10 {
		t.Fatalf("the sequence reached only %d", lnow)
	}
	tw.begin(0x800, coherence.ReadWrite, lnow-scrubThreshold-5, true)
	tw.run(2)
	if got := tw.view(0); got.CET.OpenInforms != 1 || got.MET.OpensProcessed != 1 {
		t.Fatalf("the old epoch was not announced at once: %+v", got)
	}
	tw.run(100)
}

// TestSequenceClockQueueOverflow: with the sequence stalled, informs pile
// up past the MET's queue and epochs past the scrub FIFO; both overflow
// paths run on the cycles the twins' do, and the informs left waiting go
// when they outwait the cycle window.
func TestSequenceClockQueueOverflow(t *testing.T) {
	tw := seqTwins(t)
	tw.run(200)
	tw.both(func(_ *CacheChecker, _ *MemChecker, clock coherence.LogicalClock) { clock.(*seqClock).quiet = true })
	for n := 0; n < metQueueSize+40; n++ {
		b := mem.BlockAddr(0x80 * (n + 1))
		tw.begin(b, coherence.ReadOnly, 0, true)
		tw.step()
		tw.both(func(cet *CacheChecker, _ *MemChecker, clock coherence.LogicalClock) {
			cet.EpochEnd(b, coherence.ReadOnly, clock.LogicalNow(), blockData(0))
		})
	}
	for n := 0; n < scrubFIFOSize+20; n++ {
		tw.begin(mem.BlockAddr(0x100000+0x80*n), coherence.ReadOnly, 0, true)
		tw.step()
	}
	tw.run(5000)
	got := tw.view(0)
	if got.MET.QueueOverflows == 0 || got.Queue != 0 || got.Violations != 0 {
		t.Fatalf("the queue did not overflow and drain cleanly: %+v", got)
	}
	if tw.metSkipped < 3000 {
		t.Fatalf("MET skipped only %d cycles", tw.metSkipped)
	}
}

// TestCheckerIdleTickSteadyStateAllocFree: waiting on a due cycle, or on
// an empty queue, a checker tick allocates nothing.
func TestCheckerIdleTickSteadyStateAllocFree(t *testing.T) {
	tw := skewedTwins(t, 1000, 8)
	tw.churn(200, 7) // leaves informs queued and epochs open
	cet, met := tw.cets[0], tw.mets[0]
	now := tw.now()
	if met.QueueDepth() == 0 || cet.ScrubQueueLen() == 0 || now+100 >= met.due || now+100 >= cet.due {
		t.Fatalf("checkers are not waiting on due cycles: queue %d due %d, scrub %d due %d, now %d",
			met.QueueDepth(), met.due, cet.ScrubQueueLen(), cet.due, now)
	}
	empty := NewMemChecker(0, testCfg(), tw.clocks[0], tw.ks[0].Now, tw.sinks[0])
	if allocs := testing.AllocsPerRun(100, func() {
		met.Tick(now)
		cet.Tick(now)
		empty.Tick(now)
	}); allocs != 0 {
		t.Errorf("idle checker ticks: %.2f allocs/op, want 0", allocs)
	}
}
