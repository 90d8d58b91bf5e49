package dvmc

import (
	"slices"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/proc"
	"dvmc/internal/trace"
)

// The kernel skips cycles in which no component is due, so RunUntil's
// predicate is not called on every cycle. The injection engine's
// observation window has two conditions on time rather than state: the
// finish grace and the nested-recovery second rollback. The tests below
// pin both at values generated before the kernel skipped anything.

// windowWorkload is a finite program: each thread stores to and loads from
// a few blocks the other threads share, then ends.
func windowWorkload() Workload {
	return CustomWorkload("window", func(thread int, _ uint64) proc.Program {
		var ops []proc.Op
		for i := 0; i < 30; i++ {
			op := proc.Op{Kind: proc.OpLoad, Addr: mem.Addr(mem.BlockBytes * ((thread + i) % 6)), Gap: 2}
			if i%3 == 0 {
				op.Kind, op.Data = proc.OpStore, mem.Word(thread<<8|i)
			}
			ops = append(ops, op)
		}
		return proc.NewScript(ops)
	})
}

// TestInjectionWindowEndsAfterFinishGrace: a finite program's observation
// window closes at the finishGraceCycles-th cycle boundary after the first
// one at which every thread has finished and drained, and the settle
// (DrainCheckers) follows it. The grace counts cycles, not predicate
// calls.
func TestInjectionWindowEndsAfterFinishGrace(t *testing.T) {
	const (
		armAt      = 300
		finishedAt = 6147 // the first boundary at which every thread has finished
		// settledAt is where the settle ends a window cut at finishedAt:
		// the last inform the threads sent has been judged.
		settledAt = 6958
	)
	run := func(budget uint64) (InjectionResult, *System) {
		t.Helper()
		inj := Injection{Kind: FaultMsgMisroute, Node: 1, Cycle: armAt}
		res, s, err := RunInjectionSystem(injCfg(), windowWorkload(), inj, budget)
		if err != nil {
			t.Fatal(err)
		}
		return res, s
	}
	res, s := run(1_000_000)
	if !res.Applied || res.Detected || !res.Masked {
		t.Fatalf("%v: want an applied, undetected, masked fault", res)
	}
	// The grace outlasts the settle: the METs have judged everything by
	// the time it closes, and the settle adds no cycle.
	if got, want := s.Now(), Cycle(finishedAt+finishGraceCycles); got != want {
		t.Errorf("the run ended at cycle %d, want %d (finishedAt + finishGraceCycles)", got, want)
	}
	if got := s.ResultsSoFar().OpsRetired; got != 124 {
		t.Errorf("%d ops retired, want 124", got)
	}
	// A window cut one boundary short of finishedAt still sees the
	// threads running, so nothing settles; one cut at it sees them
	// finished, and the settle runs on to settledAt.
	if _, s := run(finishedAt - 1 - armAt); s.Now() != finishedAt-1 || s.Finished() {
		t.Errorf("at cycle %d: finished %v, want a window ending at %d with threads running", s.Now(), s.Finished(), finishedAt-1)
	}
	if _, s := run(finishedAt - armAt); s.Now() != settledAt || !s.Finished() || !s.checkersSettled() {
		t.Errorf("at cycle %d: finished %v, settled %v; want a settle ending at %d with every thread finished and every inform judged",
			s.Now(), s.Finished(), s.checkersSettled(), settledAt)
	}
}

// TestDrainCheckersSettlesFinishedRuns: a finished run ends with every MET
// queue empty, on both protocols, and the settle is not vacuous — each run
// finishes with informs still queued. A run that has not finished is left
// as it is.
func TestDrainCheckersSettlesFinishedRuns(t *testing.T) {
	for _, p := range []Protocol{Directory, Snooping} {
		s, err := NewSystem(smallConfig().WithProtocol(p), windowWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if _, finished := s.RunToCompletion(1_000_000); !finished {
			t.Fatalf("%v: the programs did not finish", p)
		}
		if s.checkersSettled() {
			t.Fatalf("%v: no inform queued when the programs finished; the settle is untested", p)
		}
		s.DrainCheckers()
		for n, m := range s.met {
			if m.QueueDepth() != 0 {
				t.Errorf("%v: MET %d ends the run with %d informs unjudged", p, n, m.QueueDepth())
			}
		}
		if v := s.Violations(); len(v) != 0 {
			t.Errorf("%v: clean run flagged: %v", p, v[0])
		}

		s, err = NewSystem(smallConfig().WithProtocol(p), smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		s.RunCycles(20_000)
		s.DrainCheckers()
		if s.Now() != 20_000 || s.checkersSettled() {
			t.Errorf("%v: unfinished run: cycle %d, settled %v; want it left at 20000 with informs queued", p, s.Now(), s.checkersSettled())
		}
	}
}

// TestInjectionSecondRollbackOnDeadline: the nested-recovery fault's
// second rollback happens on the cycle boundary recoverAgainAt, whether or
// not any component is due then.
func TestInjectionSecondRollbackOnDeadline(t *testing.T) {
	cfg := injCfg().WithTrace(TraceOn())
	inj := Injection{Kind: FaultNestedRecovery, Node: 0, Cycle: 12_000, Window: 1_777}
	res, s, err := RunInjectionSystem(cfg, smallWorkload(), inj, 6_000)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var recovered []Cycle
	for _, ev := range events {
		if ev.Kind == trace.EvRecover {
			recovered = append(recovered, ev.Time)
		}
	}
	if want := []Cycle{12_000, 13_777}; !slices.Equal(recovered, want) {
		t.Errorf("rollbacks at %v, want %v (the injection cycle, then recoverAgainAt)", recovered, want)
	}
	if res.Detected || s.Now() != 18_000 {
		t.Errorf("%v, window closed at cycle %d: want undetected over the whole 6,000-cycle budget", res, s.Now())
	}
	r := s.ResultsSoFar()
	if got, want := [3]uint64{r.OpsRetired, r.Transactions, r.L1Misses}, [3]uint64{560, 31, 1108}; got != want {
		t.Errorf("ops retired, transactions, L1 misses = %v, want %v", got, want)
	}
}
