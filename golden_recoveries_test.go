package dvmc

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"dvmc/internal/trace"
)

// goldenRecovery is everything one recovery scenario leaves behind: the
// injection verdict, the whole-run results, how many violations fired and
// the hash of the execution trace (which carries every committed and
// performed value, so a restore that is off by one word changes it). The
// trace is hashed as its decoded events, annotations included, each in
// the fixed text of traceEventsSHA256: what the run did, not how the trace
// codec wrote it down (internal/trace/testdata/golden.trc pins that).
type goldenRecovery struct {
	Name        string
	Injection   InjectionResult
	Results     Results
	Violations  int
	TraceSHA256 string
	// MemorySHA256 hashes every home's blocks at the end of the run, so
	// a restored memory that differs in a block nobody read again shows.
	MemorySHA256 string
}

const (
	// recoveryFaultAt is late enough that, with Keep 3 and a 10k-cycle
	// interval, the first three checkpoints have expired before the fault.
	recoveryFaultAt = Cycle(61_000)
	// recoveryLag carries the run past the next checkpoint, which then
	// holds whatever the fault left in memory or in a dirty line.
	recoveryLag = 14_000
)

// goldenRecoveryRuns injects one fault late in a run, lets a checkpoint
// capture its effect, and then rolls back three ways: to before the fault
// (squashing the newer checkpoint), to the checkpoint taken after it, and
// both in that order with 3k cycles of work between.
func goldenRecoveryRuns(t *testing.T) []goldenRecovery {
	t.Helper()
	var out []goldenRecovery
	for _, sys := range []struct {
		p Protocol
		m Model
	}{{Directory, TSO}, {Snooping, RMO}} {
		for _, kind := range []FaultKind{FaultMemoryDataFlip, FaultCacheDataFlip, FaultMsgDataFlip,
			FaultSilentWrite, FaultWBCorrupt, FaultNestedRecovery} {
			for _, plan := range []string{"before", "after", "after-then-before"} {
				name := fmt.Sprintf("%v/%v/%v/%s", sys.p, sys.m, kind, plan)
				cfg := ScaledConfig().WithProtocol(sys.p).WithModel(sys.m).WithTrace(TraceOn())
				cfg.SNConfig.Keep = 3
				// ScaledConfig's 128 KB L2 holds OLTP's working set: by cycle
				// 61k no home has a written block, so a memory flip has no
				// target and recovery has nothing to rewind. 16 KB evicts.
				cfg.Memory.L1Sets, cfg.Memory.L1Ways = 16, 2
				cfg.Memory.L2Sets, cfg.Memory.L2Ways = 64, 4
				inj := Injection{Kind: kind, Node: 2, Cycle: recoveryFaultAt}
				_, res, s, err := RunJudged(cfg, OLTP(), &inj, recoveryLag)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// The injection run ends at detection; carry on to the lag.
				if end := recoveryFaultAt + recoveryLag; s.Now() < end {
					s.RunCycles(uint64(end - s.Now()))
				}
				recovered := true
				switch plan {
				case "before":
					recovered = s.Recover(recoveryFaultAt)
				case "after":
					recovered = s.Recover(s.Now())
				case "after-then-before":
					recovered = s.Recover(s.Now())
					s.RunCycles(3_000)
					recovered = s.Recover(recoveryFaultAt) && recovered
				}
				if !recovered {
					t.Fatalf("%s: no live checkpoint to recover to", name)
				}
				s.RunCycles(25_000)
				tr, err := s.TraceBytes()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				memory := sha256.New()
				for _, h := range s.homes {
					m := h.Memory()
					for _, b := range m.SampleBlocks(m.Blocks()) {
						fmt.Fprintf(memory, "%x %v\n", b, m.ReadBlock(b))
					}
				}
				// The file pins ground truth and what recovery rebuilds; the
				// judged class is not part of it.
				res.Class = ""
				out = append(out, goldenRecovery{
					Name: name, Injection: res, Results: s.ResultsSoFar(),
					Violations:   len(s.Violations()),
					TraceSHA256:  traceEventsSHA256(t, tr),
					MemorySHA256: fmt.Sprintf("%x", memory.Sum(nil)),
				})
			}
		}
	}
	return out
}

// traceEventsSHA256 hashes a trace's decoded events, one line of every
// field's number per event.
func traceEventsSHA256(t *testing.T, tr []byte) string {
	t.Helper()
	_, events, err := trace.Decode(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%d %d %d %d %t %t %d %d %d %d %d %d\n", e.Kind, e.Node, e.Class, e.Mask, e.IsRMW, e.Fwd,
			e.Model, e.Seq, uint64(e.Addr), uint64(e.Val), uint64(e.Val2), uint64(e.Time))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenRecoveries pins recoveries the other gates never reach: late
// in a run, after checkpoints have expired, to a checkpoint that captured
// a corruption, and nested. testdata/golden_recoveries.json was generated
// at commit 27032bd (the parent of the undo log, when every checkpoint
// was a whole-memory snapshot) with
// `go test -run TestGoldenRecoveries -update-golden .`, and regenerated
// once since, when line ECC became always on: the names lost their ecc=
// part, and only the three snooping cache-data-flip rows changed, their
// flip now corrected at first use; and when the trace format became
// version 2, which moved every TraceSHA256 and nothing else (the decoded
// commits, performs and recovery markers are the same); and when the
// trace column became the hash of the decoded events, which moved every
// TraceSHA256 once more and nothing else.
func TestGoldenRecoveries(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 36 runs of 100k cycles")
	}
	got := goldenRecoveryRuns(t)
	var want []goldenRecovery
	if goldenFile(t, "golden_recoveries.json", got, &want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(got), len(want))
	}
	applied := 0
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: differs from the golden file:\n want %+v\n got  %+v", got[i].Name, want[i], got[i])
		}
		if got[i].Injection.Applied {
			applied++
		}
	}
	// The scenarios must keep placing their faults (wb-corrupt has no
	// target under RMO's out-of-order buffer: 3 of 36).
	if applied < 30 {
		t.Errorf("only %d of %d faults applied", applied, len(got))
	}
}
