package dvmc

import (
	"fmt"
	"testing"
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

// goldenInjectionRuns runs, for every fault kind on directory/TSO and
// snooping/RMO, three fixed (node, cycle, seed) injections with SafetyNet
// on, over a 20,000-cycle observation window.
func goldenInjectionRuns(t *testing.T) []goldenVerdict {
	t.Helper()
	var out []goldenVerdict
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
				name := fmt.Sprintf("%v/%v/%v/node%d@%d/seed%d", sys.p, sys.m, kind, at.node, at.cycle, at.seed)
				res, err := RunInjection(cfg, OLTP(), inj, 20_000)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, goldenVerdict{
					Name: name, Applied: res.Applied, ActivatedAt: uint64(res.ActivatedAt),
					Detected: res.Detected, DetectionKind: res.DetectionKind.String(),
					Latency: uint64(res.Latency), Recoverable: res.Recoverable, Masked: res.Masked,
				})
			}
		}
	}
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
