package dvmc

// Differential verification: the offline oracle (internal/oracle) and the
// online DVMC checkers are independent implementations of the same
// consistency definition (the ordering tables of internal/consistency).
// These tests hold them against each other:
//
//   - on every fault-free litmus stream, workload run, model, and
//     protocol, both must stay silent;
//   - on injected-fault runs, both must flag.
//
// Disagreement in either direction is a bug in one of the two
// implementations — which is the point: the repo's soundness claim gets a
// referee that does not share code with the thing it referees.

import (
	"bytes"
	"reflect"
	"testing"

	"dvmc/internal/core"
	"dvmc/internal/mem"
	"dvmc/internal/oracle"
	"dvmc/internal/proc"
	"dvmc/internal/trace"
)

// litmusTrace converts a litmus perform-order stream into a trace: every
// operation commits first (in program order), then performs in the given
// stream order, all on node 0. Each operation touches its own word so the
// oracle's value checks are vacuous (loads read zero from words nobody
// wrote) and only the ordering rules are exercised — exactly what
// VerifyPerformOrder checks online.
func litmusTrace(model Model, protocol uint8, events []PerformEvent) (trace.Meta, []trace.Event) {
	meta := trace.Meta{Version: trace.Version, Nodes: 1, Model: model, Protocol: protocol, Seed: 0}
	eff := func(e PerformEvent) Model {
		if e.Bits32 && (model == PSO || model == RMO) {
			return TSO
		}
		return model
	}
	// Commits in program (sequence) order.
	ordered := append([]PerformEvent(nil), events...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Seq < ordered[j-1].Seq; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	var out []trace.Event
	t := Cycle(0)
	for _, e := range ordered {
		t++
		out = append(out, trace.Event{
			Kind: trace.EvCommit, Node: 0,
			Class: e.Class, Mask: e.Mask, IsRMW: e.IsRMW, Model: eff(e),
			Seq: e.Seq, Addr: mem.Addr(e.Seq * 8), Val: commitVal(e), Time: t,
		})
	}
	for _, e := range events {
		t++
		ev := trace.Event{
			Kind: trace.EvPerform, Node: 0,
			Class: e.Class, Mask: e.Mask, IsRMW: e.IsRMW, Model: eff(e),
			Seq: e.Seq, Addr: mem.Addr(e.Seq * 8), Val: commitVal(e), Time: t,
		}
		if e.IsRMW {
			ev.Val, ev.Val2 = mem.Word(e.Seq*100+1), 0
		}
		out = append(out, ev)
	}
	return meta, out
}

func commitVal(e PerformEvent) mem.Word {
	if e.Class == StoreOp && !e.IsRMW {
		return mem.Word(e.Seq*100 + 1)
	}
	return 0
}

// litmusScenarios mirrors (and extends) the perform-order streams of
// litmus_test.go. Verdicts are not hard-coded: each stream is judged by
// both implementations under every model, and the verdicts must agree.
var litmusScenarios = []struct {
	name   string
	events []PerformEvent
}{
	{"store-buffering", []PerformEvent{
		{Seq: 2, Class: LoadOp}, {Seq: 1, Class: StoreOp}}},
	{"in-order-mixed", []PerformEvent{
		{Seq: 1, Class: StoreOp}, {Seq: 2, Class: LoadOp},
		{Seq: 3, Class: StoreOp}, {Seq: 4, Class: LoadOp}}},
	{"load-load-inversion", []PerformEvent{
		{Seq: 2, Class: LoadOp}, {Seq: 1, Class: LoadOp}}},
	{"store-store-inversion", []PerformEvent{
		{Seq: 2, Class: StoreOp}, {Seq: 1, Class: StoreOp}}},
	{"load-store-inversion", []PerformEvent{
		{Seq: 2, Class: StoreOp}, {Seq: 1, Class: LoadOp}}},
	{"ss-membar-stores-across", []PerformEvent{
		{Seq: 1, Class: StoreOp}, {Seq: 3, Class: StoreOp},
		{Seq: 2, Class: MembarOp, Mask: MaskSS}}},
	{"ss-membar-loads-across", []PerformEvent{
		{Seq: 1, Class: LoadOp}, {Seq: 3, Class: LoadOp},
		{Seq: 2, Class: MembarOp, Mask: MaskSS}}},
	{"sl-membar-load-overtakes", []PerformEvent{
		{Seq: 1, Class: StoreOp}, {Seq: 3, Class: LoadOp},
		{Seq: 2, Class: MembarOp, Mask: MaskSL}}},
	{"full-membar-store-overtakes", []PerformEvent{
		{Seq: 3, Class: StoreOp}, {Seq: 1, Class: StoreOp},
		{Seq: 2, Class: MembarOp, Mask: MaskFull}}},
	{"bits32-load-inversion", []PerformEvent{
		{Seq: 2, Class: LoadOp, Bits32: true}, {Seq: 1, Class: LoadOp, Bits32: true}}},
	{"rmw-load-half", []PerformEvent{
		{Seq: 2, Class: LoadOp}, {Seq: 1, Class: StoreOp, IsRMW: true}}},
	{"rmw-store-half", []PerformEvent{
		{Seq: 2, Class: StoreOp, IsRMW: true}, {Seq: 1, Class: StoreOp}}},
}

// TestDifferentialLitmusMatrix compares the online reorder checker and
// the offline oracle over every litmus stream × model × protocol tag.
// (The protocol does not affect perform-order semantics; the oracle must
// agree under both header tags, which also guards against the oracle
// accidentally keying behaviour off the protocol byte.)
func TestDifferentialLitmusMatrix(t *testing.T) {
	flagged := 0
	for _, sc := range litmusScenarios {
		for _, m := range Models {
			online := len(VerifyPerformOrder(m, sc.events)) > 0
			for proto := uint8(0); proto <= 1; proto++ {
				meta, evs := litmusTrace(m, proto, sc.events)
				rep := oracle.Check(meta, evs)
				offline := !rep.Clean()
				if online != offline {
					t.Errorf("%s under %v (protocol %d): online flagged=%v, oracle flagged=%v (oracle: %v)",
						sc.name, m, proto, online, offline, rep.Violations)
				}
			}
			if online {
				flagged++
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no scenario flagged under any model: differential test is vacuous")
	}
}

// tracedConfig returns the small test geometry with tracing enabled.
func tracedConfig() Config {
	cfg := smallConfig()
	cfg.Trace = TraceOn()
	return cfg
}

// runTraced runs a fresh system and returns it with its results.
func runTraced(t *testing.T, cfg Config, w Workload, txns uint64) (*System, Results) {
	t.Helper()
	s, err := NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(txns, 8_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// oracleReport finalises the system's trace and replays it offline.
func oracleReport(t *testing.T, s *System) *oracle.Report {
	t.Helper()
	data, err := s.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := oracle.CheckBytes(data)
	if err != nil {
		t.Fatalf("trace did not decode: %v", err)
	}
	return rep
}

// TestDifferentialFaultFreeMatrix runs the full system fault-free across
// protocol × model × workload with tracing on: the online checkers and
// the offline oracle must both stay silent.
func TestDifferentialFaultFreeMatrix(t *testing.T) {
	// OLTP and Apache cover both high- and low-contention sharing; the
	// synthetic uniform workload is excluded because its extreme
	// contention trips a known epoch-table conservatism in the online
	// coherence checker under snooping (pre-existing, unrelated to
	// tracing — see TestCleanRunsNoViolations, which uses Workloads()).
	workloads := []Workload{OLTP(), Apache()}
	for _, protocol := range []Protocol{Directory, Snooping} {
		for _, model := range Models {
			for _, w := range workloads {
				cfg := tracedConfig().WithProtocol(protocol).WithModel(model)
				s, _ := runTraced(t, cfg, w, 60)
				if v := s.Violations(); len(v) > 0 {
					t.Errorf("%v/%v/%s: online checker flagged a fault-free run: %v",
						protocol, model, w.Name, v[0])
					continue
				}
				rep := oracleReport(t, s)
				if !rep.Clean() {
					t.Errorf("%v/%v/%s: oracle flagged a fault-free run (online was silent): %v",
						protocol, model, w.Name, rep.Violations[0])
				}
				if rep.Stats.Events == 0 {
					t.Errorf("%v/%v/%s: empty trace", protocol, model, w.Name)
				}
			}
		}
	}
}

// TestDifferentialAfterRecovery forces a SafetyNet rollback mid-run on a
// fault-free system: discarded write-buffer stores and re-exposed old
// values must not trip either implementation (the trace carries a
// recovery marker the oracle honours, mirroring the online Reset).
func TestDifferentialAfterRecovery(t *testing.T) {
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
		if v := s.Violations(); len(v) > 0 {
			t.Errorf("%v: online checker flagged the recovery run: %v", model, v[0])
			continue
		}
		rep := oracleReport(t, s)
		if rep.Stats.Recoveries == 0 {
			t.Errorf("%v: trace carries no recovery marker", model)
		}
		if !rep.Clean() {
			t.Errorf("%v: oracle flagged the fault-free recovery run: %v", model, rep.Violations[0])
		}
	}
}

// hasKind reports whether a violation of the given kind was collected.
func hasKind(vs []Violation, k core.ViolationKind) bool {
	for _, v := range vs {
		if v.Kind == k {
			return true
		}
	}
	return false
}

// hasRule reports whether the oracle flagged under the given rule.
func hasRule(rep *oracle.Report, r oracle.Rule) bool {
	for _, v := range rep.Violations {
		if v.Rule == r {
			return true
		}
	}
	return false
}

// injectWBFault runs a TSO/directory system, arms a write-buffer fault on
// node 0 mid-run, and returns the system after the fault has had time to
// manifest and be detected.
func injectWBFault(t *testing.T, arm func(*proc.InOrderWB)) *System {
	t.Helper()
	cfg := tracedConfig().WithModel(TSO)
	cfg.Proc.MembarInjectionInterval = 2000 // bound lost-op detection latency
	s, err := NewSystem(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	s.RunCycles(5_000) // warm up
	wb, ok := s.cpus[0].WriteBuffer().(*proc.InOrderWB)
	if !ok {
		t.Fatalf("TSO system has %T write buffer", s.cpus[0].WriteBuffer())
	}
	arm(wb)
	s.RunCycles(60_000)
	return s
}

// TestDifferentialInjectedFaults covers the flag/flag direction: three
// distinct write-buffer faults, each caught by the online checkers AND by
// the oracle — through different rules, since the implementations share
// no mechanism.
func TestDifferentialInjectedFaults(t *testing.T) {
	t.Run("wb-corrupt", func(t *testing.T) {
		// A store's value flips a bit between commit and the cache write:
		// online, the UO checker's VC comparison catches it; offline, R5
		// sees the perform value differ from the commit value.
		s := injectWBFault(t, (*proc.InOrderWB).InjectCorruptNext)
		if !hasKind(s.Violations(), core.UOStoreMismatch) {
			t.Errorf("online checker missed the corrupted store (got %v)", s.Violations())
		}
		rep := oracleReport(t, s)
		if !hasRule(rep, oracle.RuleStoreValue) {
			t.Errorf("oracle missed the corrupted store (got %v)", rep.Violations)
		}
	})
	t.Run("wb-reorder", func(t *testing.T) {
		// The FIFO buffer drains a younger store first: online, the
		// overtaken store's seq falls below max{Store}; offline, R2 (and
		// R1) see the ordered pair invert.
		s := injectWBFault(t, (*proc.InOrderWB).InjectReorder)
		if !hasKind(s.Violations(), core.ReorderViolation) {
			t.Errorf("online checker missed the reordered stores (got %v)", s.Violations())
		}
		rep := oracleReport(t, s)
		if !hasRule(rep, oracle.RuleOvertaken) && !hasRule(rep, oracle.RuleReorder) {
			t.Errorf("oracle missed the reordered stores (got %v)", rep.Violations)
		}
	})
	t.Run("wb-drop", func(t *testing.T) {
		// A store silently vanishes from the buffer: online, the injected
		// membar's committed/performed counters disagree (lost operation);
		// offline, the membar — or any later ordered store — performs past
		// the forever-unperformed commit (R2).
		s := injectWBFault(t, (*proc.InOrderWB).InjectDropNext)
		if !hasKind(s.Violations(), core.LostOperation) {
			t.Errorf("online checker missed the dropped store (got %v)", s.Violations())
		}
		rep := oracleReport(t, s)
		if !hasRule(rep, oracle.RuleOvertaken) {
			t.Errorf("oracle missed the dropped store (got %v)", rep.Violations)
		}
		if rep.Stats.UnperformedAtEnd == 0 {
			t.Error("dropped store not reflected in end-of-trace accounting")
		}
	})
	t.Run("lsq-value-repaired", func(t *testing.T) {
		// A load's bound value flips a bit in the LSQ with the verification
		// stage ON: the replay mismatches, value-update recovery repairs
		// the architectural value before it commits, and the trace —
		// which records architectural values — stays consistent. Online
		// detection is reported via FaultOutcome; the oracle, verifying
		// the committed (repaired) execution, must stay silent: the fault
		// did not escape.
		cfg := tracedConfig().WithModel(TSO)
		s, err := NewSystem(cfg, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		s.RunCycles(5_000)
		s.cpus[0].InjectLoadValueFault()
		s.RunCycles(60_000)
		if _, activated := s.cpus[0].FaultActivatedAt(); !activated {
			t.Skip("LSQ fault never activated in this window")
		}
		caught, squashed := s.cpus[0].FaultOutcome()
		if !caught && !squashed {
			t.Error("activated LSQ fault neither caught nor squashed")
		}
		rep := oracleReport(t, s)
		if hasRule(rep, oracle.RuleLoadValue) {
			t.Errorf("oracle flagged a repaired (non-escaped) fault: %v", rep.Violations)
		}
	})
	t.Run("lsq-value-escaped", func(t *testing.T) {
		// The same LSQ bit flip with the verification stage OFF: nothing
		// repairs the value, the load commits the corruption, the online
		// checkers that remain (reordering, coherence) cannot see it —
		// and the offline oracle's R3 value check must catch what the
		// weakened online configuration missed. This is the differential
		// payoff: the oracle is an independent detector, not a replica.
		cfg := tracedConfig().WithModel(TSO)
		cfg.DVMC.UniprocessorOrdering = false
		s, err := NewSystem(cfg, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		s.RunCycles(5_000)
		s.cpus[0].InjectLoadValueFault()
		s.RunCycles(60_000)
		if _, activated := s.cpus[0].FaultActivatedAt(); !activated {
			t.Skip("LSQ fault never activated in this window")
		}
		if caught, squashed := s.cpus[0].FaultOutcome(); caught || squashed {
			t.Skipf("fault did not escape (caught=%v squashed=%v)", caught, squashed)
		}
		if vs := s.Violations(); len(vs) != 0 {
			t.Errorf("online checkers unexpectedly flagged the value fault: %v", vs)
		}
		rep := oracleReport(t, s)
		if !hasRule(rep, oracle.RuleLoadValue) {
			t.Errorf("oracle missed the escaped load-value corruption (got %v)", rep.Violations)
		}
	})
}

// TestTraceDeterministic is the determinism regression: for every
// protocol and a spread of seeds, two runs with the same configuration
// must produce byte-identical traces and identical Results — the
// contract every benchmark, the offline oracle, and the whole
// differential harness rely on. It pins the maprange fixes: a single
// unordered map walk whose order leaks into message timing shows up
// here as a trace mismatch.
func TestTraceDeterministic(t *testing.T) {
	seeds := []uint64{1, 7, 99}
	protocols := []Protocol{Directory, Snooping}
	run := func(p Protocol, seed uint64) ([]byte, Results) {
		cfg := tracedConfig().WithProtocol(p).WithSeed(seed)
		s, res := runTraced(t, cfg, smallWorkload(), 60)
		data, err := s.TraceBytes()
		if err != nil {
			t.Fatal(err)
		}
		return data, res
	}
	for _, p := range protocols {
		bySeed := make(map[uint64][]byte)
		for _, seed := range seeds {
			d1, r1 := run(p, seed)
			d2, r2 := run(p, seed)
			if !bytes.Equal(d1, d2) {
				t.Errorf("%v seed %d: traces differ between identical runs: %d vs %d bytes", p, seed, len(d1), len(d2))
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%v seed %d: results differ between identical runs:\n%+v\n%+v", p, seed, r1, r2)
			}
			if len(d1) == 0 {
				t.Fatalf("%v seed %d: empty trace", p, seed)
			}
			bySeed[seed] = d1
		}
		// Different seeds must (overwhelmingly) change the trace —
		// guards against the recorder ignoring the run entirely.
		for i, a := range seeds {
			for _, b := range seeds[i+1:] {
				if bytes.Equal(bySeed[a], bySeed[b]) {
					t.Errorf("%v: seeds %d and %d produced identical traces", p, a, b)
				}
			}
		}
	}
}
