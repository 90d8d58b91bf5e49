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
// one at which every thread has finished and drained. The grace counts
// cycles, not predicate calls.
func TestInjectionWindowEndsAfterFinishGrace(t *testing.T) {
	const (
		armAt      = 300
		finishedAt = 6147 // the first boundary at which every thread has finished
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
	if got, want := s.Now(), Cycle(finishedAt+finishGraceCycles); got != want {
		t.Errorf("the window closed at cycle %d, want %d (finishedAt + finishGraceCycles)", got, want)
	}
	if got := s.ResultsSoFar().OpsRetired; got != 124 {
		t.Errorf("%d ops retired, want 124", got)
	}
	// A window cut one boundary short of finishedAt still sees the
	// threads running; one cut at it sees them finished.
	if _, s := run(finishedAt - 1 - armAt); s.Now() != finishedAt-1 || s.Finished() {
		t.Errorf("at cycle %d: finished %v, want a window ending at %d with threads running", s.Now(), s.Finished(), finishedAt-1)
	}
	if _, s := run(finishedAt - armAt); s.Now() != finishedAt || !s.Finished() {
		t.Errorf("at cycle %d: finished %v, want a window ending at %d with every thread finished", s.Now(), s.Finished(), finishedAt)
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
