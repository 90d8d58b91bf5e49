package dvmc

import (
	"fmt"
	"testing"

	"dvmc/internal/core"
	"dvmc/internal/trace"
)

// goldenVerdict is one RunInjection verdict, every field the injection
// engine decides per fault kind.
type goldenVerdict struct {
	Name          string
	Applied       bool
	ActivatedAt   uint64
	Detected      bool
	DetectionKind string
	Latency       uint64
	Recoverable   bool
	Masked        bool
}

// forGoldenInjections calls run for every fault kind on directory/TSO
// and snooping/RMO with three fixed (node, cycle, seed) injections, in
// the order of testdata/golden_injections.json. Each runs with
// SafetyNet on over a 20,000-cycle observation window.
func forGoldenInjections(run func(name string, cfg Config, inj Injection)) {
	for _, sys := range []struct {
		p Protocol
		m Model
	}{{Directory, TSO}, {Snooping, RMO}} {
		for _, kind := range AllFaultKinds() {
			for _, at := range []struct {
				node  int
				cycle Cycle
				seed  uint64
			}{{0, 1500, 3}, {2, 3100, 11}, {3, 4900, 29}} {
				cfg := injCfg().WithProtocol(sys.p).WithModel(sys.m).WithSeed(at.seed)
				inj := Injection{Kind: kind, Node: at.node, Cycle: at.cycle}
				run(fmt.Sprintf("%v/%v/%v/node%d@%d/seed%d", sys.p, sys.m, kind, at.node, at.cycle, at.seed), cfg, inj)
			}
		}
	}
}

const goldenInjectionBudget = 20_000

// verdictOf is the golden form of one injection result.
func verdictOf(name string, res InjectionResult) goldenVerdict {
	return goldenVerdict{
		Name: name, Applied: res.Applied, ActivatedAt: uint64(res.ActivatedAt),
		Detected: res.Detected, DetectionKind: res.DetectionKind.String(),
		Latency: uint64(res.Latency), Recoverable: res.Recoverable, Masked: res.Masked,
	}
}

// goldenInjectionRuns runs every golden injection untraced.
func goldenInjectionRuns(t *testing.T) []goldenVerdict {
	t.Helper()
	var out []goldenVerdict
	forGoldenInjections(func(name string, cfg Config, inj Injection) {
		res, err := RunInjection(cfg, OLTP(), inj, goldenInjectionBudget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, verdictOf(name, res))
	})
	return out
}

// TestGoldenInjections pins the per-kind verdicts against
// testdata/golden_injections.json. The file was generated at commit
// 8852db8 (the parent of the faultKinds table, when each kind's
// behaviour still lived in the switches of inject.go) with
// `go test -run TestGoldenInjections -update-golden .`, and regenerated
// once since, when the label of an ECC correction became "ecc-corrected"
// (four cache-data-flip rows; no verdict moved).
func TestGoldenInjections(t *testing.T) {
	got := goldenInjectionRuns(t)
	var want []goldenVerdict
	if goldenFile(t, "golden_injections.json", got, &want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d verdicts, golden file has %d", len(got), len(want))
	}
	outcomes := map[string]bool{}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("verdict differs from the golden file:\n want %+v\n got  %+v", want[i], got[i])
		}
		switch {
		case !got[i].Applied:
			outcomes["not-applied"] = true
		case got[i].Detected:
			outcomes["detected"] = true
		case got[i].Masked:
			outcomes["masked"] = true
		default:
			outcomes["escape"] = true
		}
	}
	// The scenarios must keep exercising every verdict path.
	for _, o := range []string{"not-applied", "detected", "masked", "escape"} {
		if !outcomes[o] {
			t.Errorf("no golden run ends %s", o)
		}
	}
}

// TestTraceFoldEqualsInjectionResult runs every golden injection with
// tracing on and folds its trace's fault and violation records: the
// trace alone must tell what InjectionResult tells. The fault record
// names the injected kind and node, its outcome and fired cycle match
// the verdict (a fault that never fired records 0 and keeps its arming
// cycle as ActivatedAt), and a detection by violation is the
// first violation record at or after arming, in kind and cycle. Checkpoint
// records count up from 1, and each recovery names a recorded checkpoint.
// The traced verdicts are the golden file's: recording perturbs nothing.
func TestTraceFoldEqualsInjectionResult(t *testing.T) {
	var want []goldenVerdict
	goldenFile(t, "golden_injections.json", nil, &want)
	i := 0
	forGoldenInjections(func(name string, cfg Config, inj Injection) {
		defer func() { i++ }()
		_, res, s, err := RunJudged(cfg.WithTrace(TraceOn()), OLTP(), &inj, goldenInjectionBudget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := verdictOf(name, res); i >= len(want) || got != want[i] {
			t.Errorf("%s: traced verdict %+v is not the golden one", name, got)
		}
		data, err := s.TraceBytes()
		if err != nil {
			t.Fatal(err)
		}
		_, events, err := trace.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var faults, violations []trace.Event
		checkpoints := map[Cycle]bool{} // by cycle taken
		for _, ev := range events {
			switch ev.Kind {
			case trace.EvFault:
				faults = append(faults, ev)
			case trace.EvViolation:
				violations = append(violations, ev)
			case trace.EvCheckpoint:
				if ev.Seq != uint64(len(checkpoints))+1 {
					t.Errorf("%s: checkpoint record %v after %d checkpoints", name, ev, len(checkpoints))
				}
				checkpoints[ev.Time] = true
			case trace.EvRecover:
				if !checkpoints[Cycle(ev.Val)] {
					t.Errorf("%s: recovery %v restores no recorded checkpoint", name, ev)
				}
			}
		}
		if len(faults) != 1 || events[len(events)-1] != faults[0] {
			t.Fatalf("%s: %d fault records, want one closing the trace", name, len(faults))
		}
		f := faults[0]
		armed, fired := Cycle(f.Val), Cycle(f.Val2)
		if FaultKind(f.Seq) != inj.Kind || int(f.Node) != inj.Node%cfg.Nodes || f.Mask != faultOutcome(res) {
			t.Errorf("%s: fault record %v, result %+v", name, f, res)
		}
		if fired != res.ActivatedAt && !(fired == 0 && res.ActivatedAt == armed) {
			t.Errorf("%s: fault fired at %d, ActivatedAt %d (armed %d)", name, fired, res.ActivatedAt, armed)
		}
		if !res.Detected || res.DetectionKind == core.ECCCorrected {
			return
		}
		for _, v := range violations {
			if Cycle(v.Time) >= armed {
				if core.ViolationKind(v.Seq) != res.DetectionKind || v.Time != res.ActivatedAt+res.Latency {
					t.Errorf("%s: first violation after arming %v; detected %v at %d",
						name, v, res.DetectionKind, res.ActivatedAt+res.Latency)
				}
				return
			}
		}
		if res.DetectionKind != core.UOMismatch {
			t.Errorf("%s: detected as %v, but the trace records no violation after arming", name, res.DetectionKind)
		}
	})
}
