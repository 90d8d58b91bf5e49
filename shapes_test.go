package dvmc

// System-level shape assertions: the qualitative findings of the paper's
// evaluation that must hold in any faithful reproduction, checked as
// tests so regressions in the substrate surface immediately.

import (
	"testing"

	"dvmc/internal/core"
)

func measure(t *testing.T, cfg Config, w Workload, txns uint64) Results {
	t.Helper()
	s, err := NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(txns, 60_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v[0])
	}
	return res
}

// TestShapeWriteBufferBenefit: the TSO write buffer must not lose to SC
// on a store-heavy workload (paper 6.2.1: "the addition of a write
// buffer in the TSO system improves performance for almost all
// benchmarks").
func TestShapeWriteBufferBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Store-heavy with mostly private data: the regime the paper's
	// write-buffer claim describes. (An all-shared write storm instead
	// measures coherence ping-pong, where TSO's longer store pipeline
	// loses block ownership more often — not the Figure 3 scenario.)
	w := Uniform(512, 0.4)
	w.Params.PrivateFrac = 0.9
	base := func(m Model) uint64 {
		cfg := ScaledConfig().WithModel(m)
		cfg.DVMC = Off()
		cfg.SafetyNet = false
		return measure(t, cfg, w, 120).Cycles
	}
	sc, tso := base(SC), base(TSO)
	if float64(tso) > 1.05*float64(sc) {
		t.Errorf("TSO base (%d) materially slower than SC base (%d)", tso, sc)
	}
}

// TestShapeDVMCOverheadBounded: full protection must stay within a sane
// multiple of the paper's worst case (11%) on the directory system.
func TestShapeDVMCOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, w := range []Workload{OLTP(), Apache()} {
		base := ScaledConfig()
		base.DVMC = Off()
		base.SafetyNet = false
		b := measure(t, base, w, 120).Cycles
		p := measure(t, ScaledConfig(), w, 120).Cycles
		over := float64(p)/float64(b) - 1
		if over > 0.30 {
			t.Errorf("%s: DVMC overhead %.1f%% implausibly high", w.Name, 100*over)
		}
		if over < -0.10 {
			t.Errorf("%s: DVMC faster than base by %.1f%%; accounting broken?", w.Name, -100*over)
		}
	}
}

// TestShapeInformTrafficProportional: inform messages track epoch ends,
// which track coherence activity ("Inform-Epoch traffic is proportional
// to coherence traffic").
func TestShapeInformTrafficProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	small := measure(t, ScaledConfig(), Uniform(128, 0.5), 60)
	large := measure(t, ScaledConfig().WithSeed(3), Uniform(2048, 0.5), 60)
	// The bigger footprint forces more misses, hence more epochs and
	// more informs.
	if large.L2Misses <= small.L2Misses {
		t.Skip("footprint did not change miss count; nothing to compare")
	}
	if large.Informs <= small.Informs {
		t.Errorf("informs not proportional: %d misses -> %d informs vs %d misses -> %d informs",
			small.L2Misses, small.Informs, large.L2Misses, large.Informs)
	}
}

// TestShapeReplayMissesRare: paper Figure 6 — replay misses are a tiny
// fraction of demand misses on every workload.
func TestShapeReplayMissesRare(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, w := range Workloads() {
		res := measure(t, ScaledConfig(), w, 60)
		if r := res.ReplayMissRatio(); r > 0.25 {
			t.Errorf("%s: replay miss ratio %.3f not rare", w.Name, r)
		}
	}
}

// TestShapeSingleNodeNearZeroOverhead: with one processor all
// verification traffic is loopback and no sharing exists; DVMC must be
// nearly free (Figure 9's left edge).
func TestShapeSingleNodeNearZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	base := ScaledConfig().WithNodes(1)
	base.DVMC = Off()
	base.SafetyNet = false
	b := measure(t, base, JBB(), 40).Cycles
	p := measure(t, ScaledConfig().WithNodes(1), JBB(), 40).Cycles
	if over := float64(p)/float64(b) - 1; over > 0.10 {
		t.Errorf("single-node DVMC overhead %.1f%%, want near zero", 100*over)
	}
}

// TestShapeCheckerActivity: in a protected run every checker must
// actually be exercising its invariant (non-zero activity), otherwise
// the "zero violations" property is vacuous.
func TestShapeCheckerActivity(t *testing.T) {
	cfg := ScaledConfig()
	s, err := NewSystem(cfg, OLTP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(60, 30_000_000); err != nil {
		t.Fatal(err)
	}
	var replays, checked, accesses, informs uint64
	for n := 0; n < cfg.Nodes; n++ {
		replays += checkerStats(s.uo, n, (*core.UniprocChecker).Stats).LoadsReplayed
		checked += checkerStats(s.reorder, n, (*core.ReorderChecker).Stats).OpsChecked
		accesses += checkerStats(s.cet, n, (*core.CacheChecker).Stats).Accesses
		informs += checkerStats(s.met, n, (*core.MemChecker).Stats).InformsProcessed
	}
	if replays == 0 || checked == 0 || accesses == 0 || informs == 0 {
		t.Errorf("idle checker: replays=%d reorderChecked=%d cetAccesses=%d metInforms=%d",
			replays, checked, accesses, informs)
	}
}

// TestShapeSnoopingCheaperThanDirectory: the paper finds greater DVMC
// overheads on the directory system.
func TestShapeSnoopingCheaperThanDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	overhead := func(p Protocol) float64 {
		base := ScaledConfig().WithProtocol(p)
		base.DVMC = Off()
		base.SafetyNet = false
		b := measure(t, base, OLTP(), 100).Cycles
		f := measure(t, ScaledConfig().WithProtocol(p), OLTP(), 100).Cycles
		return float64(f) / float64(b)
	}
	dir, snp := overhead(Directory), overhead(Snooping)
	if snp > dir+0.10 {
		t.Errorf("snooping overhead (%.3f) much larger than directory (%.3f); paper shape inverted", snp, dir)
	}
}
