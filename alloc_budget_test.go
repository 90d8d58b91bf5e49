package dvmc

import (
	"runtime"
	"testing"

	"dvmc/internal/oracle/stream"
	"dvmc/internal/trace"
)

// TestSteadyStateAllocBudget pins heap objects per simulated cycle on the
// benchmark's two simulator configurations. What is left is the coherence
// traffic itself, one object per message: envelope and payload body are
// one allocation, and a directory transaction lives in its block's entry
// (DESIGN.md, "Object lifetimes", says why messages stay on the heap).
// The access path, the pipeline, evictions' writeback entries, benign
// replay mismatches and checkpoints contribute nothing once warm. The
// two read 0.176 and 0.072, and the budgets are that plus 10 % (0.177
// and 0.074 while an eviction kept a heap entry and a mismatch formatted
// a violation; 0.37 and 0.14 while a message was two objects and a
// transaction one more; 1.84 and 1.01 before the access path recycled
// its records). A second object per message, or one closure per load or
// per fetched op, fails here, not in a benchmark.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2 × 250k cycles")
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		w      Workload
		budget float64
	}{
		{"directory/TSO/oltp", ScaledConfig().WithProtocol(Directory).WithModel(TSO), OLTP(), 0.194},
		{"snooping/RMO/slash", ScaledConfig().WithProtocol(Snooping).WithModel(RMO), Slashcode(), 0.080},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(tc.cfg, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			s.RunCycles(50_000)
			const cycles = 200_000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.RunCycles(cycles)
			runtime.ReadMemStats(&after)
			perCycle := float64(after.Mallocs-before.Mallocs) / cycles
			t.Logf("%.3f heap objects and %.1f bytes per cycle", perCycle,
				float64(after.TotalAlloc-before.TotalAlloc)/cycles)
			if perCycle > tc.budget {
				t.Errorf("%.3f heap objects per cycle, budget %.3f", perCycle, tc.budget)
			}
			if s.Violations() != nil {
				t.Errorf("fault-free run reported %v", s.Violations())
			}
		})
	}
}

// TestConstructionAllocBudget pins the bytes one NewSystem allocates. A
// system allocates what its run touches (DESIGN.md, "Object lifetimes"):
// an L2 set chunk at its first fill, a telemetry ring at its first
// sample. Before that rule the fuzz shape cost 1.20 MB and the 8-node
// shape 2.34 MB, nearly all of it L2 lines and rings no run had touched;
// with 64-set L2 chunks 55 KB and 111 KB. Now the L1 tag filter is
// chunked too, the reorder buffer and the VC index start empty, and the
// two read 25.6 KB and 51 KB.
func TestConstructionAllocBudget(t *testing.T) {
	fuzzShape := smallConfig().WithProtocol(Snooping).WithModel(TSO)
	fuzzShape.SafetyNet = true
	for _, tc := range []struct {
		name   string
		cfg    Config
		w      Workload
		oracle trace.Sink
		budget uint64
	}{
		{"fuzz shape: 4-node snooping/TSO/SafetyNet, sink-only trace", fuzzShape, smallWorkload(), stream.New(fuzzShape.TraceMeta(), stream.Options{}), 32 << 10},
		{"8-node ScaledConfig/OLTP", ScaledConfig(), OLTP(), nil, 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const builds = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < builds; i++ {
				if _, err := newSystem(tc.cfg, tc.w, tc.oracle); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perSystem := (after.TotalAlloc - before.TotalAlloc) / builds
			t.Logf("%d bytes and %d heap objects per NewSystem", perSystem, (after.Mallocs-before.Mallocs)/builds)
			if perSystem > tc.budget {
				t.Errorf("NewSystem allocates %d bytes, budget %d", perSystem, tc.budget)
			}
		})
	}
}
