package fuzz

import (
	"runtime"
	"testing"
)

// TestCaseAllocBudget pins what one campaign case allocates while it runs:
// bytes and heap objects per RunCaseStreamed over the first 200 cases of
// a seed-1 campaign at fault-frac 0.5 with every kind. A system allocates
// what its run touches (DESIGN.md, "Object lifetimes"), and a fuzz
// program touches four blocks, so a structure sized by the cache geometry
// or the pipeline rather than by the run, or grown by doubling, fails
// here. A campaign's collector work scales with these bytes. Before the
// L2 and L1 arrays came in 16-set chunks, the uop and the L2 line were
// packed and the MET and CET queues grew by segments, a case cost 210,487
// bytes and 1,302 heap objects; then 114,625 and 1,287, which set the
// byte budget (plus 10 %). With a coherence message one object and the
// stream oracle's write history sized for the median case, a case costs
// 109,980 bytes and 1,066 objects; the object budget is that plus 10 %.
// The pipeline's three lists of ROB entries, which take regions of the
// reorder buffer's allocation, and a checkpoint capture that allocates
// nothing make that 116,577 bytes and 1,059 objects. Building each case
// on a retired system's storage made it 95,883 and 1,017. With the free
// lists of every record a system's components take (micro-ops, cache
// accesses, MSHRs, transits, home waits) kept in that storage too,
// shared by the system's nodes, a case costs 69,590 bytes and 619
// objects, and both budgets are that plus 10 %. Those counts assume the
// case finds the spare the previous case retired. A race-detector build's
// pool drops a quarter of the spares put back at random, so there a case
// costs 84,031-92,295 bytes and 749-819 objects (16 runs), and its
// budgets are the highest of those plus 10 %.
func TestCaseAllocBudget(t *testing.T) {
	const cases = 200
	bytesBudget, objsBudget := uint64(76_500), uint64(681)
	if raceEnabled {
		bytesBudget, objsBudget = 101_500, 901
	}
	cfg := CampaignConfig{Seed: 1, Runs: cases, FaultFrac: 0.5}
	cs := make([]*Case, cases)
	for i := range cs {
		cs[i] = CaseAt(cfg, i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cs {
		if _, _, err := RunCaseStreamed(c, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCase := (after.TotalAlloc - before.TotalAlloc) / cases
	objs := (after.Mallocs - before.Mallocs) / cases
	t.Logf("%d bytes and %d heap objects per case", perCase, objs)
	if perCase > bytesBudget {
		t.Errorf("a case allocates %d bytes, budget %d", perCase, bytesBudget)
	}
	if objs > objsBudget {
		t.Errorf("a case allocates %d heap objects, budget %d", objs, objsBudget)
	}
}
