package core

import (
	"testing"

	"dvmc/internal/mem"
)

func TestUniprocStoreLifecycleClean(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x100, 7)
	if u.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1", u.Entries())
	}
	u.StorePerformed(0x100, 7, 10)
	if sink.Count() != 0 {
		t.Errorf("clean store flagged: %v", sink.Violations)
	}
	if u.Entries() != 0 {
		t.Errorf("entry not freed at perform")
	}
}

func TestUniprocStoreValueCorruptionDetected(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x100, 7)
	u.StorePerformed(0x100, 8, 10) // write buffer corrupted the value
	if sink.Count() != 1 || sink.Violations[0].Kind != UOStoreMismatch {
		t.Fatalf("store corruption not detected: %v", sink.Violations)
	}
}

func TestUniprocSameWordStoresMergeAndCompareLast(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x100, 1)
	u.StoreCommitted(0x100, 2) // newer store to the same word
	u.StorePerformed(0x100, 1, 10)
	if sink.Count() != 0 {
		t.Fatalf("intermediate perform flagged: %v", sink.Violations)
	}
	u.StorePerformed(0x100, 2, 11)
	if sink.Count() != 0 {
		t.Errorf("final perform of correct value flagged: %v", sink.Violations)
	}
	if u.Entries() != 0 {
		t.Errorf("entry not freed after both performs")
	}
}

func TestUniprocSameWordReorderDetected(t *testing.T) {
	// If the write buffer reorders same-word stores, every out-of-order
	// perform pops the wrong expected value from the word's FIFO:
	// detected on the spot, not just at deallocation.
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x100, 1)
	u.StoreCommitted(0x100, 2)
	u.StorePerformed(0x100, 2, 10) // newer first
	u.StorePerformed(0x100, 1, 11) // older last: cache ends with 1
	if sink.Count() == 0 || sink.Violations[0].Kind != UOStoreMismatch {
		t.Fatalf("same-word reorder not detected: %v", sink.Violations)
	}
}

func TestUniprocReplayHitsVCForPendingStores(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x200, 42)
	// A later load replays and must see the committed store's value even
	// though the store has not performed.
	hit, match := u.ReplayLoad(0x200, 42, 5)
	if !hit || !match {
		t.Errorf("replay of forwarded value: hit=%v match=%v", hit, match)
	}
	hit, match = u.ReplayLoad(0x200, 41, 6)
	if !hit || match {
		t.Errorf("stale forwarded value not flagged: hit=%v match=%v", hit, match)
	}
	// A mismatch is the CPU's flush, counted and not reported.
	if st := u.Stats(); st.LoadMismatches != 1 || sink.Count() != 0 {
		t.Errorf("load mismatches %d, violations %v; want 1 and none", st.LoadMismatches, sink.Violations)
	}
}

func TestUniprocReplayMissGoesToCache(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	hit, _ := u.ReplayLoad(0x300, 9, 5)
	if hit {
		t.Fatal("empty VC reported a hit")
	}
	if !u.CompareReplay(9, 9) {
		t.Error("matching cache replay reported mismatch")
	}
	if u.CompareReplay(9, 8) {
		t.Error("mismatching cache replay reported match")
	}
	st := u.Stats()
	if st.VCMisses != 1 || st.LoadMismatches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUniprocCapacityBackpressure(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 2, false, &sink)
	u.StoreCommitted(0x100, 1)
	u.StoreCommitted(0x200, 2)
	if u.CanAllocateStore(0x300) {
		t.Error("full VC accepted a third word")
	}
	if !u.CanAllocateStore(0x100) {
		t.Error("existing word refused (should merge)")
	}
	u.StorePerformed(0x100, 1, 10)
	if !u.CanAllocateStore(0x300) {
		t.Error("VC still full after deallocation")
	}
}

func TestUniprocRMOLoadValueCaching(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, true, &sink)
	u.LoadExecuted(0x400, 5)
	hit, match := u.ReplayLoad(0x400, 5, 10)
	if !hit || !match {
		t.Errorf("cached load value not used: hit=%v match=%v", hit, match)
	}
	// A committed local store updates the view.
	u.StoreCommitted(0x400, 6)
	hit, match = u.ReplayLoad(0x400, 6, 11)
	if !hit || !match {
		t.Errorf("store did not update cached value: hit=%v match=%v", hit, match)
	}
	// After the store performs, the word remains cached (RMO keeps load
	// values resident).
	u.StorePerformed(0x400, 6, 12)
	hit, match = u.ReplayLoad(0x400, 6, 13)
	if !hit || !match {
		t.Errorf("word evicted after perform under RMO: hit=%v", hit)
	}
	if sink.Count() != 0 {
		t.Errorf("violations: %v", sink.Violations)
	}
}

func TestUniprocLoadValueEvictionBounded(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 4, true, &sink)
	for i := 0; i < 20; i++ {
		u.LoadExecuted(mem.Addr(0x1000+8*i), mem.Word(i))
	}
	if u.Entries() > 4 {
		t.Errorf("VC grew to %d entries, capacity 4", u.Entries())
	}
}

func TestUniprocFlushDropsLoadValuesKeepsStores(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, true, &sink)
	u.LoadExecuted(0x500, 1)
	u.StoreCommitted(0x600, 2)
	u.Flush()
	if hit, _ := u.ReplayLoad(0x500, 1, 20); hit {
		t.Error("flushed load value still resident")
	}
	if hit, match := u.ReplayLoad(0x600, 2, 21); !hit || !match {
		t.Error("committed store lost by flush")
	}
}

func TestUniprocLoadExecutedIgnoredWithoutCaching(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.LoadExecuted(0x700, 9)
	if u.Entries() != 0 {
		t.Error("LoadExecuted cached a value in ordered-load mode")
	}
}

func TestUniprocPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewUniprocChecker(0, 0, false, nil)
}

// TestUniprocRMWStoreSameWordFIFO mirrors the false-alarm reproducer
// (RMO program with an RMW, a Bits32 TSO-forced store, and a plain
// store to the same word) at the VC level: all three commit values into
// the word's FIFO, and in-order performs — including the intermediate
// ones — are clean. The old final-value-only comparison flagged the
// intermediate performs of exactly this shape.
func TestUniprocRMWStoreSameWordFIFO(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x10, 1)    // RMW inc on initial 0
	u.StoreCommitted(0x10, 0x2a) // Bits32 store (effective-TSO)
	u.StoreCommitted(0x10, 0x2c) // plain store
	if u.StoreEntries() != 1 {
		t.Fatalf("StoreEntries = %d, want 1 (same-word FIFO merge)", u.StoreEntries())
	}
	u.StorePerformed(0x10, 1, 10)
	u.StorePerformed(0x10, 0x2a, 12)
	u.StorePerformed(0x10, 0x2c, 14)
	if sink.Count() != 0 {
		t.Fatalf("in-order same-word drain flagged: %v", sink.Violations)
	}
	if u.Entries() != 0 || u.StoreEntries() != 0 {
		t.Errorf("entry not freed after drain: entries=%d stores=%d", u.Entries(), u.StoreEntries())
	}
}

// TestUniprocInterleavedBurstsAcrossWordsClean: a PSO/RMO write buffer
// may drain different words in any order; only the per-word FIFO order
// is architectural. Interleaved performs across two words must stay
// clean as long as each word drains in commit order.
func TestUniprocInterleavedBurstsAcrossWordsClean(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x100, 1)
	u.StoreCommitted(0x108, 10)
	u.StoreCommitted(0x100, 2)
	u.StoreCommitted(0x108, 20)
	// Words drain out of order with respect to each other.
	u.StorePerformed(0x108, 10, 5)
	u.StorePerformed(0x100, 1, 6)
	u.StorePerformed(0x108, 20, 7)
	u.StorePerformed(0x100, 2, 8)
	if sink.Count() != 0 {
		t.Fatalf("cross-word interleaving flagged: %v", sink.Violations)
	}
	if u.StoreEntries() != 0 {
		t.Errorf("StoreEntries = %d after full drain", u.StoreEntries())
	}
}

// TestUniprocSameWordSkippedValueDetected: a coalescing write buffer
// that swallows an intermediate committed value (performs v1 then v3,
// never v2) trips the FIFO comparison at the second perform — the
// skipped value is architecturally visible to loads and must reach the
// cache.
func TestUniprocSameWordSkippedValueDetected(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	u.StoreCommitted(0x40, 1)
	u.StoreCommitted(0x40, 2)
	u.StoreCommitted(0x40, 3)
	u.StorePerformed(0x40, 1, 10)
	u.StorePerformed(0x40, 3, 11) // v2 skipped
	if sink.Count() == 0 || sink.Violations[0].Kind != UOStoreMismatch {
		t.Fatalf("skipped intermediate value not detected: %v", sink.Violations)
	}
}

// TestUniprocCheckDrainedDetectsLostStore: at a drain point (membar
// retirement, program end) every committed store must have performed; a
// lingering VC store entry is a lost store. The violation names the
// lowest pending word deterministically.
func TestUniprocCheckDrainedDetectsLostStore(t *testing.T) {
	var sink CollectorSink
	u := NewUniprocChecker(0, 16, false, &sink)
	if !u.CheckDrained(5) {
		t.Fatal("empty VC reported undrained")
	}
	u.StoreCommitted(0x200, 7)
	u.StoreCommitted(0x100, 9) // lower word: must be the one reported
	u.StorePerformed(0x200, 7, 10)
	if u.CheckDrained(20) {
		t.Fatal("lost store not detected at drain")
	}
	if sink.Count() != 1 || sink.Violations[0].Kind != UOStoreMismatch {
		t.Fatalf("violations: %v", sink.Violations)
	}
	if got := sink.Violations[0].Block; got != mem.Addr(0x100).Block() {
		t.Errorf("violation block %v, want the lowest pending word's block", got)
	}
	u.StorePerformed(0x100, 9, 30)
	if !u.CheckDrained(40) {
		t.Error("drained VC still reported a lost store")
	}
}
