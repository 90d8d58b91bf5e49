package dvmc

import (
	"runtime"
	"testing"
)

// TestSteadyStateAllocBudget pins heap objects per simulated cycle on the
// benchmark's two simulator configurations. What is left is the coherence
// traffic itself — message envelopes, their boxed payloads and the homes'
// transaction records (DESIGN.md, "Object lifetimes", says why those stay
// on the heap); the access path, the pipeline and checkpoints contribute
// nothing once warm. The two read 0.37 and 0.14 (1.84 and 1.01 before
// the access path recycled its records); one closure per load or per
// fetched op adds 0.2 or more, so it fails here, not in a benchmark.
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
		{"directory/TSO/oltp", ScaledConfig().WithProtocol(Directory).WithModel(TSO), OLTP(), 0.45},
		{"snooping/RMO/slash", ScaledConfig().WithProtocol(Snooping).WithModel(RMO), Slashcode(), 0.18},
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
				t.Errorf("%.3f heap objects per cycle, budget %.2f", perCycle, tc.budget)
			}
			if s.Violations() != nil {
				t.Errorf("fault-free run reported %v", s.Violations())
			}
		})
	}
}
