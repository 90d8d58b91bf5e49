package core

import (
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// fakeNet captures sent messages and can forward them to a MET checker.
type fakeNet struct {
	sent []*network.Message
	to   *MemChecker
}

func (f *fakeNet) Send(m *network.Message) {
	f.sent = append(f.sent, m)
	if f.to != nil {
		f.to.Handle(m)
	}
}

var _ network.Network = (*fakeNet)(nil)

// manualClock is a LogicalClock driven by tests.
type manualClock struct{ t uint64 }

func (c *manualClock) LogicalNow() uint64 { return c.t }

// tickPast sets clock to lnow, which must lie past the settle window of
// every inform queued at met, and ticks met: the MET judges them all, so
// what a test asserts about its verdict covers every inform it was sent.
func tickPast(t *testing.T, met *MemChecker, clock *manualClock, lnow uint64) {
	t.Helper()
	clock.t = lnow
	met.Tick(0)
	if n := met.QueueDepth(); n != 0 {
		t.Fatalf("%d informs still queued at logical time %d", n, lnow)
	}
}

func testCfg() coherence.Config {
	return coherence.Config{Nodes: 8, L1Sets: 2, L1Ways: 1, L2Sets: 4, L2Ways: 2}
}

func newCETMET(t *testing.T) (*CacheChecker, *MemChecker, *manualClock, *CollectorSink, *fakeNet) {
	t.Helper()
	clock := &manualClock{t: 100}
	sink := &CollectorSink{}
	cfg := testCfg()
	var cyc sim.Cycle
	met := NewMemChecker(0, cfg, clock, func() sim.Cycle { return cyc }, sink)
	net := &fakeNet{to: met}
	cet := NewCacheChecker(1, cfg, net, clock, func() sim.Cycle { return cyc }, sink)
	return cet, met, clock, sink, net
}

func blockData(w0 mem.Word) mem.Block {
	var b mem.Block
	b[0] = w0
	return b
}

func TestCETCleanEpochLifecycle(t *testing.T) {
	cet, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80) // home = 0x80 % 8 = 0
	met.BlockRequested(b, blockData(0))

	clock.t = 110
	cet.EpochBegin(b, coherence.ReadWrite, 110, true, blockData(0))
	cet.Access(b, true)
	clock.t = 120
	cet.EpochEnd(b, coherence.ReadWrite, 120, blockData(7))
	// Judge the inform at the first logical time its settle window allows.
	tickPast(t, met, clock, 110+settleWindow)
	if sink.Count() != 0 {
		t.Fatalf("clean epoch produced violations: %v", sink.Violations)
	}
	if met.Stats().InformsProcessed != 1 {
		t.Errorf("InformsProcessed = %d", met.Stats().InformsProcessed)
	}
}

func TestCETAccessWithoutEpochDetected(t *testing.T) {
	cet, _, _, sink, _ := newCETMET(t)
	cet.Access(0x80, false)
	if sink.Count() != 1 || sink.Violations[0].Kind != EpochAccessViolation {
		t.Fatalf("access without epoch not detected: %v", sink.Violations)
	}
}

func TestCETWriteInReadOnlyEpochDetected(t *testing.T) {
	cet, _, _, sink, _ := newCETMET(t)
	cet.EpochBegin(0x80, coherence.ReadOnly, 100, true, blockData(0))
	cet.Access(0x80, true)
	if sink.Count() != 1 || sink.Violations[0].Kind != EpochAccessViolation {
		t.Fatalf("store in RO epoch not detected: %v", sink.Violations)
	}
}

func TestCETReadInReadOnlyEpochAllowed(t *testing.T) {
	cet, _, _, sink, _ := newCETMET(t)
	cet.EpochBegin(0x80, coherence.ReadOnly, 100, true, blockData(0))
	cet.Access(0x80, false)
	if sink.Count() != 0 {
		t.Errorf("read in RO epoch flagged: %v", sink.Violations)
	}
}

func TestMETOverlapDetected(t *testing.T) {
	cet, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	// Two RW epochs overlapping in logical time: [110, 130) and [120, 140).
	cet.EpochBegin(b, coherence.ReadWrite, 110, true, blockData(0))
	cet.EpochEnd(b, coherence.ReadWrite, 130, blockData(1))
	// Second epoch reported by another CET (simulate directly).
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadWrite, Begin: Wrap(120), End: Wrap(140),
		BeginHash: BlockHash(blockData(1)), EndHash: BlockHash(blockData(2)), From: 2}})
	tickPast(t, met, clock, 500)
	found := false
	for _, v := range sink.Violations {
		if v.Kind == EpochOverlap {
			found = true
		}
	}
	if !found {
		t.Fatalf("RW/RW overlap not detected: %v", sink.Violations)
	}
}

func TestMETReadOnlyEpochsMayOverlap(t *testing.T) {
	_, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	h := BlockHash(blockData(0))
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadOnly, Begin: Wrap(110), End: Wrap(150), BeginHash: h, EndHash: h, From: 1}})
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadOnly, Begin: Wrap(120), End: Wrap(140), BeginHash: h, EndHash: h, From: 2}})
	tickPast(t, met, clock, 500)
	if sink.Count() != 0 {
		t.Errorf("overlapping RO epochs flagged: %v", sink.Violations)
	}
}

func TestMETRWCannotOverlapRO(t *testing.T) {
	_, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	h := BlockHash(blockData(0))
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadOnly, Begin: Wrap(110), End: Wrap(150), BeginHash: h, EndHash: h, From: 1}})
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadWrite, Begin: Wrap(130), End: Wrap(160), BeginHash: h, EndHash: h, From: 2}})
	tickPast(t, met, clock, 500)
	found := false
	for _, v := range sink.Violations {
		if v.Kind == EpochOverlap {
			found = true
		}
	}
	if !found {
		t.Fatalf("RW overlapping RO not detected: %v", sink.Violations)
	}
}

func TestMETDataPropagationMismatchDetected(t *testing.T) {
	_, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	// Epoch 1 ends with data 7; epoch 2 begins with data 8: corruption.
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadWrite, Begin: Wrap(110), End: Wrap(120),
		BeginHash: BlockHash(blockData(0)), EndHash: BlockHash(blockData(7)), From: 1}})
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadWrite, Begin: Wrap(130), End: Wrap(140),
		BeginHash: BlockHash(blockData(8)), EndHash: BlockHash(blockData(8)), From: 2}})
	tickPast(t, met, clock, 500)
	found := false
	for _, v := range sink.Violations {
		if v.Kind == DataPropagation {
			found = true
		}
	}
	if !found {
		t.Fatalf("data propagation error not detected: %v", sink.Violations)
	}
}

func TestMETInitialEntryFromMemoryData(t *testing.T) {
	_, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(42))
	// First epoch begins with the memory's data: clean.
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadOnly, Begin: Wrap(110), End: Wrap(120),
		BeginHash: BlockHash(blockData(42)), EndHash: BlockHash(blockData(42)), From: 1}})
	tickPast(t, met, clock, 500)
	if sink.Count() != 0 {
		t.Fatalf("clean first epoch flagged: %v", sink.Violations)
	}
	// A different first-begin hash is a propagation error.
	b2 := mem.BlockAddr(0x88)
	met.BlockRequested(b2, blockData(42))
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b2, Kind: coherence.ReadOnly, Begin: Wrap(110), End: Wrap(120),
		BeginHash: BlockHash(blockData(43)), EndHash: BlockHash(blockData(43)), From: 1}})
	tickPast(t, met, clock, 900)
	if sink.Count() == 0 {
		t.Error("first-epoch corruption vs memory not detected")
	}
}

func TestMETProcessesInBeginOrder(t *testing.T) {
	// Informs arriving out of begin order must be sorted by the priority
	// queue: epoch [110,120) arriving after [130,140) must not trigger a
	// false overlap.
	_, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	h0 := BlockHash(blockData(0))
	h1 := BlockHash(blockData(1))
	h2 := BlockHash(blockData(2))
	// Later epoch arrives first.
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadWrite, Begin: Wrap(130), End: Wrap(140),
		BeginHash: h1, EndHash: h2, From: 2}})
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadWrite, Begin: Wrap(110), End: Wrap(120),
		BeginHash: h0, EndHash: h1, From: 1}})
	tickPast(t, met, clock, 1000)
	if sink.Count() != 0 {
		t.Fatalf("out-of-order arrival caused false positive: %v", sink.Violations)
	}
}

func TestMETQueueOverflowStillProcesses(t *testing.T) {
	_, met, clock, sink, _ := newCETMET(t)
	_ = clock
	h := BlockHash(blockData(0))
	for i := 0; i < metQueueSize+10; i++ {
		b := mem.BlockAddr(i * 8)
		met.BlockRequested(b, blockData(0))
		met.Handle(&network.Message{Payload: &InformEpoch{
			Block: b, Kind: coherence.ReadOnly, Begin: Wrap(uint64(100 + i)), End: Wrap(uint64(101 + i)),
			BeginHash: h, EndHash: h, From: 1}})
	}
	if met.Stats().QueueOverflows == 0 {
		t.Error("queue never overflowed")
	}
	if met.Stats().InformsProcessed == 0 {
		t.Error("no informs processed on overflow")
	}
	_ = sink
}

func TestMETTickDrainsByWindow(t *testing.T) {
	_, met, clock, _, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	h := BlockHash(blockData(0))
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadOnly, Begin: Wrap(110), End: Wrap(111),
		BeginHash: h, EndHash: h, From: 1}})
	met.Tick(1)
	if met.Stats().InformsProcessed != 0 {
		t.Error("inform processed before window elapsed")
	}
	clock.t = 110 + 200 // beyond window
	met.Tick(2)
	if met.Stats().InformsProcessed != 1 {
		t.Error("inform not processed after window elapsed")
	}
}

func TestMETCycleWindowForcesProgress(t *testing.T) {
	// With a stalled logical clock (idle snooping bus), informs must
	// still process within the cycle window.
	_, met, _, _, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	h := BlockHash(blockData(0))
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadOnly, Begin: Wrap(110), End: Wrap(111),
		BeginHash: h, EndHash: h, From: 1}})
	met.Tick(10000)
	if met.Stats().InformsProcessed != 1 {
		t.Error("stalled logical clock blocked inform processing")
	}
}

func TestCETScrubbingAnnouncesOldEpochs(t *testing.T) {
	cet, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	clock.t = 200
	cet.EpochBegin(b, coherence.ReadWrite, 200, true, blockData(0))
	// Let the epoch age past the scrub threshold.
	clock.t = 200 + scrubThreshold + 10
	cet.Tick(1000)
	if cet.Stats().OpenInforms != 1 {
		t.Fatalf("OpenInforms = %d, want 1", cet.Stats().OpenInforms)
	}
	if met.Stats().OpensProcessed != 1 {
		t.Fatalf("MET OpensProcessed = %d, want 1", met.Stats().OpensProcessed)
	}
	// Ending the epoch now ships an Inform-Closed.
	clock.t += 10
	cet.EpochEnd(b, coherence.ReadWrite, clock.t, blockData(3))
	if cet.Stats().ClosedInforms != 1 {
		t.Fatalf("ClosedInforms = %d, want 1", cet.Stats().ClosedInforms)
	}
	if met.Stats().ClosesProcessed != 1 {
		t.Fatalf("MET ClosesProcessed = %d, want 1", met.Stats().ClosesProcessed)
	}
	if sink.Count() != 0 {
		t.Errorf("scrubbed epoch lifecycle flagged: %v", sink.Violations)
	}
}

func TestMETOpenRWConflictsWithNewEpoch(t *testing.T) {
	_, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(0))
	h := BlockHash(blockData(0))
	met.Handle(&network.Message{Payload: &InformOpenEpoch{
		Block: b, Kind: coherence.ReadWrite, Begin: Wrap(110), BeginHash: h, From: 1}})
	// Another node reports an epoch while node 1's RW epoch is open.
	met.Handle(&network.Message{Payload: &InformEpoch{
		Block: b, Kind: coherence.ReadOnly, Begin: Wrap(150), End: Wrap(160),
		BeginHash: h, EndHash: h, From: 2}})
	tickPast(t, met, clock, 1000)
	found := false
	for _, v := range sink.Violations {
		if v.Kind == EpochOverlap {
			found = true
		}
	}
	if !found {
		t.Fatalf("epoch during open RW not detected: %v", sink.Violations)
	}
}

func TestCETWraparoundTimestampsSurvive(t *testing.T) {
	// Epochs spanning the 16-bit wraparound must reconstruct correctly
	// at the MET (no false positives).
	cet, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	clock.t = 0xfff0
	met.BlockRequested(b, blockData(0))
	cet.EpochBegin(b, coherence.ReadWrite, 0xfff0, true, blockData(0))
	clock.t = 0x10010 // wrapped
	cet.EpochEnd(b, coherence.ReadWrite, 0x10010, blockData(1))
	clock.t = 0x10020
	cet.EpochBegin(b, coherence.ReadOnly, 0x10020, true, blockData(1))
	clock.t = 0x10030
	cet.EpochEnd(b, coherence.ReadOnly, 0x10030, blockData(1))
	tickPast(t, met, clock, 0x10400)
	if sink.Count() != 0 {
		t.Fatalf("wraparound caused violations: %v", sink.Violations)
	}
	if met.Stats().InformsProcessed != 2 {
		t.Errorf("InformsProcessed = %d, want 2", met.Stats().InformsProcessed)
	}
}

func TestCETEndWithoutBeginDetected(t *testing.T) {
	cet, _, _, sink, _ := newCETMET(t)
	cet.EpochEnd(0x80, coherence.ReadWrite, 100, blockData(0))
	if sink.Count() != 1 || sink.Violations[0].Kind != CETStateViolation {
		t.Fatalf("end without begin not detected: %v", sink.Violations)
	}
}

func TestCETDataReadyBit(t *testing.T) {
	cet, met, clock, sink, _ := newCETMET(t)
	b := mem.BlockAddr(0x80)
	met.BlockRequested(b, blockData(5))
	// Snooping-style epoch: begins before data arrives.
	cet.EpochBegin(b, coherence.ReadOnly, 110, false, mem.Block{})
	cet.EpochData(b, blockData(5))
	clock.t = 120
	cet.EpochEnd(b, coherence.ReadOnly, 120, blockData(5))
	tickPast(t, met, clock, 1000)
	if sink.Count() != 0 {
		t.Fatalf("DataReady lifecycle flagged: %v", sink.Violations)
	}
}
