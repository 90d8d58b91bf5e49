package core

import (
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/sim"
)

// checkerTwins drives two CET+MET pairs on a real SkewedClock with the
// same epochs. The first pair sleeps until its due cycles; the twin has
// both due cycles zeroed before every tick, so it reads the clock and
// looks at its queues every cycle, as the checkers did before they could
// sleep. Their counters, queue depths and violations must agree after
// every cycle.
type checkerTwins struct {
	t      *testing.T
	cyc    sim.Cycle
	clocks [2]*coherence.SkewedClock
	cets   [2]*CacheChecker
	mets   [2]*MemChecker
	sinks  [2]*CollectorSink
	// skipped counts ticks the first MET and CET returned from on their
	// due-cycle compare.
	metSkipped, cetSkipped int
}

func newCheckerTwins(t *testing.T, start sim.Cycle, div uint64) *checkerTwins {
	tw := &checkerTwins{t: t, cyc: start}
	now := func() sim.Cycle { return tw.cyc }
	for i := range tw.cets {
		tw.clocks[i] = coherence.NewSkewedClock(now, 3, div)
		tw.sinks[i] = &CollectorSink{}
		tw.mets[i] = NewMemChecker(0, testCfg(), tw.clocks[i], now, tw.sinks[i])
		tw.cets[i] = NewCacheChecker(1, testCfg(), &fakeNet{to: tw.mets[i]}, tw.clocks[i], now, tw.sinks[i])
	}
	return tw
}

func (tw *checkerTwins) both(fn func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock)) {
	for i := range tw.cets {
		fn(tw.cets[i], tw.mets[i], tw.clocks[i])
	}
}

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
	if tw.mets[0].QueueDepth() > 0 && tw.cyc < tw.mets[0].due {
		tw.metSkipped++
	}
	if tw.cets[0].ScrubQueueLen() > 0 && tw.cyc < tw.cets[0].due {
		tw.cetSkipped++
	}
	tw.mets[1].due, tw.cets[1].due = 0, 0
	tw.both(func(cet *CacheChecker, met *MemChecker, _ *coherence.SkewedClock) {
		met.Tick(tw.cyc)
		cet.Tick(tw.cyc)
	})
	if a, b := tw.view(0), tw.view(1); a != b {
		tw.t.Fatalf("cycle %d (logical %d): sleeping checkers diverged from their twins\n sleeping %+v\n twin     %+v",
			tw.cyc, tw.clocks[0].LogicalNow(), a, b)
	}
	tw.cyc++
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
			tw.both(func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock) {
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
	tw := newCheckerTwins(t, (1<<16-400)*div, div)
	tw.both(func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock) {
		met.BlockRequested(0x800, blockData(0))
		cet.EpochBegin(0x800, coherence.ReadOnly, clock.LogicalNow(), true, blockData(0))
	})
	tw.churn((1<<17+2000)*div, 7)
	got := tw.view(0)
	if got.Violations != 0 {
		t.Fatalf("violations in a clean run: %v", tw.sinks[0].Violations[0])
	}
	if got.MET.InformsProcessed < 15_000 || got.CET.OpenInforms != 1 || got.MET.OpensProcessed != 1 {
		t.Fatalf("run did not exercise settling and scrubbing: %+v", got)
	}
	if tw.metSkipped < 100_000 || tw.cetSkipped < 200_000 {
		t.Fatalf("checkers skipped only %d (MET) and %d (CET) ticks on their due cycle", tw.metSkipped, tw.cetSkipped)
	}
}

// TestScrubDueCycle: with few enough epochs that the scrub FIFO never
// overflows, the two long-lived epochs (block 0x800 and churn's slow
// block) are announced when they age past the scrub threshold, on the
// cycle the clock says so.
func TestScrubDueCycle(t *testing.T) {
	const div = 2
	tw := newCheckerTwins(t, 7, div)
	tw.both(func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock) {
		met.BlockRequested(0x800, blockData(0))
		cet.EpochBegin(0x800, coherence.ReadOnly, clock.LogicalNow(), true, blockData(0))
	})
	tw.churn((scrubThreshold+200)*div, 401)
	if got := tw.view(0); got.CET.OpenInforms != 2 || got.MET.OpensProcessed != 2 || got.Violations != 0 {
		t.Fatalf("long-lived epochs were not scrubbed once each: %+v", got)
	}
	if tw.cetSkipped < scrubThreshold*div-100 {
		t.Fatalf("CET skipped only %d ticks", tw.cetSkipped)
	}
}

// TestScrubDueCycleAfterRequeue: an old epoch still waiting for its data
// is re-queued behind a younger one, and comes back to the head when the
// FIFO overflows; its due cycle is long past, whatever the younger
// head's was.
func TestScrubDueCycleAfterRequeue(t *testing.T) {
	const div = 2
	tw := newCheckerTwins(t, 7, div)
	tw.both(func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock) {
		met.BlockRequested(0x800, blockData(0))
		cet.EpochBegin(0x800, coherence.ReadOnly, clock.LogicalNow(), false, mem.Block{})
	})
	for i := 0; i < (scrubThreshold-50)*div; i++ {
		tw.step()
	}
	tw.both(func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock) {
		met.BlockRequested(0x880, blockData(0))
		cet.EpochBegin(0x880, coherence.ReadOnly, clock.LogicalNow(), true, blockData(0))
	})
	for i := 0; i < 100*div; i++ { // 0x800 ages out, is re-queued behind 0x880
		tw.step()
	}
	for n := 0; n < scrubFIFOSize; n++ { // overflow: 0x880 leaves, 0x800 heads the FIFO again
		b := mem.BlockAddr(0x1000 + 0x80*n)
		tw.both(func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock) {
			met.BlockRequested(b, blockData(0))
			cet.EpochBegin(b, coherence.ReadOnly, clock.LogicalNow(), true, blockData(0))
		})
		tw.step()
	}
	tw.both(func(cet *CacheChecker, _ *MemChecker, _ *coherence.SkewedClock) { cet.EpochData(0x800, blockData(0)) })
	for i := 0; i < 200; i++ {
		tw.step()
	}
	if got := tw.view(0); got.Violations != 0 || got.MET.OpensProcessed < 2 {
		t.Fatalf("re-queued epoch was not announced: %+v", got)
	}
}

// TestCheckerDueCycleIsTheCycleWindow: with a slow logical clock the
// MET's cycle bound (4096 cycles in the queue) comes before the settle
// window does; the due cycle is the earlier of the two.
func TestCheckerDueCycleIsTheCycleWindow(t *testing.T) {
	tw := newCheckerTwins(t, 0, 64)
	tw.churn(40_000, 53)
	if got := tw.view(0); got.MET.InformsProcessed < 300 || got.Violations != 0 {
		t.Fatalf("run did not exercise the cycle window cleanly: %+v", got)
	}
	if tw.metSkipped < 20_000 {
		t.Fatalf("MET skipped only %d ticks", tw.metSkipped)
	}
}

// TestCheckerDueCyclesFollowInjectedSkew: a clock-skew fault moves
// logical time forward under waiting informs and an unscrubbed epoch;
// the due cycles move with it.
func TestCheckerDueCyclesFollowInjectedSkew(t *testing.T) {
	const div = 8
	tw := newCheckerTwins(t, 50_000, div)
	tw.both(func(cet *CacheChecker, met *MemChecker, clock *coherence.SkewedClock) {
		met.BlockRequested(0x800, blockData(0))
		cet.EpochBegin(0x800, coherence.ReadOnly, clock.LogicalNow(), true, blockData(0))
	})
	tw.churn(3_000, 7)
	processed, opens := tw.view(0).MET.InformsProcessed, tw.view(0).CET.OpenInforms
	tw.both(func(_ *CacheChecker, _ *MemChecker, clock *coherence.SkewedClock) {
		clock.InjectSkew((scrubThreshold + 10) * div)
	})
	tw.step()
	if got := tw.view(0); got.MET.InformsProcessed == processed || got.CET.OpenInforms == opens {
		t.Fatalf("the tick after the skew processed nothing: %+v", got)
	}
	tw.churn(3_000, 7)
}

// TestCheckerIdleTickSteadyStateAllocFree: waiting on a due cycle, or on
// an empty queue, a checker tick allocates nothing.
func TestCheckerIdleTickSteadyStateAllocFree(t *testing.T) {
	tw := newCheckerTwins(t, 1000, 8)
	tw.churn(200, 7) // leaves informs queued and epochs open
	cet, met := tw.cets[0], tw.mets[0]
	if met.QueueDepth() == 0 || cet.ScrubQueueLen() == 0 || tw.cyc+100 >= met.due || tw.cyc+100 >= cet.due {
		t.Fatalf("checkers are not waiting on due cycles: queue %d due %d, scrub %d due %d, now %d",
			met.QueueDepth(), met.due, cet.ScrubQueueLen(), cet.due, tw.cyc)
	}
	empty := NewMemChecker(0, testCfg(), tw.clocks[0], func() sim.Cycle { return tw.cyc }, tw.sinks[0])
	now := tw.cyc
	if allocs := testing.AllocsPerRun(100, func() {
		met.Tick(now)
		cet.Tick(now)
		empty.Tick(now)
	}); allocs != 0 {
		t.Errorf("idle checker ticks: %.2f allocs/op, want 0", allocs)
	}
}
