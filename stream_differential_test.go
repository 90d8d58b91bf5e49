package dvmc

// Oracle equivalence suite: the per-event checker the product runs
// (internal/oracle/stream) must produce reports byte-identical to the
// batch reference (internal/oracle) on every trace the differential
// harness produces — litmus streams, full-system fault-free runs,
// SafetyNet-recovery runs, and injected-fault runs. This is the contract
// that lets fuzz verdicts and `dvmc-stat check` run the per-event engine
// alone.

import (
	"reflect"
	"testing"

	"dvmc/internal/oracle"
	"dvmc/internal/oracle/stream"
	"dvmc/internal/proc"
	"dvmc/internal/trace"
)

// streamMatrix is the single configuration there is.
func streamMatrix() []stream.Options { return []stream.Options{{}} }

// assertStreamEquivalent checks the stream report against the batch
// report on one event stream.
func assertStreamEquivalent(t *testing.T, label string, meta trace.Meta, events []trace.Event) *oracle.Report {
	t.Helper()
	want := oracle.Check(meta, events)
	for _, o := range streamMatrix() {
		chk := stream.New(meta, o)
		for _, ev := range events {
			chk.Feed(ev)
		}
		got := chk.Finish()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: stream report differs from batch:\nbatch : %+v\nstream: %+v", label, want, got)
		}
	}
	return want
}

// assertStreamEquivalentBytes is the encoded-trace variant (exercises
// the incremental decoder too).
func assertStreamEquivalentBytes(t *testing.T, label string, data []byte) *oracle.Report {
	t.Helper()
	want, err := oracle.CheckBytes(data)
	if err != nil {
		t.Fatalf("%s: batch decode: %v", label, err)
	}
	for _, o := range streamMatrix() {
		got, err := stream.CheckBytes(data, o)
		if err != nil {
			t.Fatalf("%s: stream decode: %v", label, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: stream report differs from batch", label)
		}
	}
	return want
}

// TestStreamEquivalenceLitmusMatrix covers every litmus stream × model
// × protocol tag from the differential harness — the reordering-rich
// traces where violation order and content must match exactly.
func TestStreamEquivalenceLitmusMatrix(t *testing.T) {
	flagged := 0
	for _, sc := range litmusScenarios {
		for _, m := range Models {
			for proto := uint8(0); proto <= 1; proto++ {
				meta, evs := litmusTrace(m, proto, sc.events)
				rep := assertStreamEquivalent(t, sc.name, meta, evs)
				if !rep.Clean() {
					flagged++
				}
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no litmus point flagged under any model: equivalence test is vacuous")
	}
}

// TestStreamEquivalenceFaultFree runs the full system fault-free across
// protocol × model with tracing on and holds the streaming engine to
// the batch report on the captured trace.
func TestStreamEquivalenceFaultFree(t *testing.T) {
	for _, protocol := range []Protocol{Directory, Snooping} {
		for _, model := range Models {
			cfg := tracedConfig().WithProtocol(protocol).WithModel(model)
			s, _ := runTraced(t, cfg, OLTP(), 40)
			data, err := s.TraceBytes()
			if err != nil {
				t.Fatal(err)
			}
			label := protocol.String() + "/" + model.String()
			rep := assertStreamEquivalentBytes(t, label, data)
			if !rep.Clean() {
				t.Errorf("%s: fault-free run not clean: %v", label, rep.Violations[0])
			}
			if rep.Stats.Events == 0 {
				t.Errorf("%s: empty trace", label)
			}
		}
	}
}

// TestStreamEquivalenceAfterRecovery holds equivalence on a trace with
// a SafetyNet rollback marker — the recover-fold path, where the
// streaming engine must legitimize discarded committed stores at
// exactly the batch checker's stream position.
func TestStreamEquivalenceAfterRecovery(t *testing.T) {
	for _, model := range []Model{TSO, RMO} {
		cfg := tracedConfig().WithModel(model)
		s, err := NewSystem(cfg, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		s.RunCycles(60_000)
		if !s.Recover(s.Now()) {
			t.Fatalf("%v: no live checkpoint to recover to", model)
		}
		s.RunCycles(60_000)
		data, err := s.TraceBytes()
		if err != nil {
			t.Fatal(err)
		}
		rep := assertStreamEquivalentBytes(t, "recovery/"+model.String(), data)
		if rep.Stats.Recoveries == 0 {
			t.Errorf("%v: trace carries no recovery marker", model)
		}
	}
}

// TestStreamEquivalenceInjectedFaults holds equivalence where it
// matters most: on violating traces, across the three write-buffer
// fault flavours (value corruption → R5, reorder → R1/R2, dropped
// store → R2 at the next membar). The violations themselves — order,
// text, counts — must be byte-identical.
func TestStreamEquivalenceInjectedFaults(t *testing.T) {
	faults := []struct {
		name string
		arm  func(*proc.InOrderWB)
	}{
		{"wb-corrupt", (*proc.InOrderWB).InjectCorruptNext},
		{"wb-reorder", (*proc.InOrderWB).InjectReorder},
		{"wb-drop", (*proc.InOrderWB).InjectDropNext},
	}
	flagged := 0
	for _, f := range faults {
		s := injectWBFault(t, f.arm)
		data, err := s.TraceBytes()
		if err != nil {
			t.Fatal(err)
		}
		rep := assertStreamEquivalentBytes(t, f.name, data)
		if !rep.Clean() {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no injected fault produced oracle violations: equivalence test is vacuous")
	}
}

// TestStreamedFuzzVerdictMatchesBatch pins the fuzz wiring end to end:
// a system run with the streaming checker attached as a sink-only trace
// consumer must reach the same oracle verdict as batch-replaying the
// bytes of an identical recorded run.
func TestStreamedFuzzVerdictMatchesBatch(t *testing.T) {
	run := func(sink *stream.Checker) *System {
		cfg := tracedConfig()
		var consumer trace.Sink // nil: the recorder alone
		if sink != nil {
			cfg.Trace, consumer = TraceConfig{}, sink
		}
		s, err := newSystem(cfg, smallWorkload(), consumer)
		if err != nil {
			t.Fatal(err)
		}
		s.RunCycles(100_000)
		return s
	}
	chk := stream.New(tracedConfig().TraceMeta(), stream.Options{})
	sinkSys := run(chk)
	streamed := chk.Finish()

	recSys := run(nil)
	if recSys.Tracing() != true || sinkSys.Tracing() != false {
		t.Fatalf("Tracing() = %v/%v, want true (recorded) / false (sink-only)", recSys.Tracing(), sinkSys.Tracing())
	}
	data, err := recSys.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := oracle.CheckBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, streamed) {
		t.Fatalf("sink-only streamed verdict differs from recorded batch verdict:\nbatch : %+v\nstream: %+v", batch, streamed)
	}
}
