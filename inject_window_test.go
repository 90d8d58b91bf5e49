package dvmc

import (
	"slices"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/proc"
	"dvmc/internal/trace"
)

// The kernel skips cycles in which no component is due, so RunUntil's
// predicate is not called on every cycle. A finite run ends on a state
// predicate, System.settled; the injection engine's observation window
// has one condition on time rather than state, the nested-recovery second
// rollback. The tests below pin where both end.

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

// queuedInforms counts the Inform-Epochs the METs hold unjudged.
func queuedInforms(s *System) int {
	n := 0
	for _, m := range s.met {
		n += m.QueueDepth()
	}
	return n
}

// TestInjectionWindowEndsSettled: a finite program's observation window
// closes at the first cycle boundary at which the system is settled:
// every thread finished, both networks quiet, every inform judged. A
// budget that runs out first ends the window where it runs out, settled
// or not.
func TestInjectionWindowEndsSettled(t *testing.T) {
	const (
		armAt      = 300
		finishedAt = 6147 // the first boundary at which every thread has finished
		settledAt  = 6958 // the first at which the last inform has been judged
	)
	run := func(budget uint64) (InjectionResult, *System) {
		t.Helper()
		inj := Injection{Kind: FaultMsgMisroute, Node: 1, Cycle: armAt}
		_, res, s, err := RunJudged(injCfg(), windowWorkload(), &inj, budget)
		if err != nil {
			t.Fatal(err)
		}
		return res, s
	}
	res, s := run(1_000_000)
	if !res.Applied || res.Detected || !res.Masked {
		t.Fatalf("%v: want an applied, undetected, masked fault", res)
	}
	if s.Now() != settledAt || !s.settled() {
		t.Errorf("the run ended at cycle %d, settled %v; want it settled at %d", s.Now(), s.settled(), settledAt)
	}
	if got := s.ResultsSoFar().OpsRetired; got != 124 {
		t.Errorf("%d ops retired, want 124", got)
	}
	// A window cut at finishedAt sees the threads finished, but informs
	// are still queued there: it ends unsettled, like any budget-cut run.
	if _, s := run(finishedAt - armAt); s.Now() != finishedAt || !s.Finished() || s.settled() || queuedInforms(s) == 0 {
		t.Errorf("at cycle %d: finished %v, settled %v, %d informs queued; want a window ending unsettled at %d with informs queued",
			s.Now(), s.Finished(), s.settled(), queuedInforms(s), finishedAt)
	}
}

// TestRunToCompletionEndsSettled: a finished run ends settled, with every
// MET queue empty, on both protocols, and the settle is not vacuous: at
// the first boundary at which the programs have finished, informs are
// still queued. A statistical workload never settles and runs the whole
// budget.
func TestRunToCompletionEndsSettled(t *testing.T) {
	for _, p := range []Protocol{Directory, Snooping} {
		s, err := NewSystem(smallConfig().WithProtocol(p), windowWorkload())
		if err != nil {
			t.Fatal(err)
		}
		s.kernel.RunUntil(s.Finished, 1_000_000)
		if !s.Finished() || queuedInforms(s) == 0 {
			t.Fatalf("%v: finished %v with %d informs queued; want finished programs with informs queued, or the settle is untested",
				p, s.Finished(), queuedInforms(s))
		}
		if _, finished := s.RunToCompletion(1_000_000); !finished || !s.settled() {
			t.Fatalf("%v: finished %v, settled %v; want a settled run", p, finished, s.settled())
		}
		if v := s.Violations(); len(v) != 0 {
			t.Errorf("%v: clean run flagged: %v", p, v[0])
		}

		s, err = NewSystem(smallConfig().WithProtocol(p), smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if _, finished := s.RunToCompletion(20_000); finished || s.Now() != 20_000 || s.settled() {
			t.Errorf("%v: statistical run: cycle %d, finished %v, settled %v; want it unsettled at 20000", p, s.Now(), finished, s.settled())
		}
	}
}

// TestInjectionSecondRollbackOnDeadline: the nested-recovery fault's
// second rollback happens on the cycle boundary recoverAgainAt, whether or
// not any component is due then.
func TestInjectionSecondRollbackOnDeadline(t *testing.T) {
	cfg := injCfg().WithTrace(TraceOn())
	inj := Injection{Kind: FaultNestedRecovery, Node: 0, Cycle: 12_000, Window: 1_777}
	_, res, s, err := RunJudged(cfg, smallWorkload(), &inj, 6_000)
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
