package dvmc

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvmc/internal/coherence"
	"dvmc/internal/core"
	"dvmc/internal/network"
	"dvmc/internal/proc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/golden_*.json of the tests that run from this build")

// goldenCounts is every simulated count of one run that an execution
// trace does not carry: stall counters, link observation time, checker
// and controller counters, and where and when each violation fired.
type goldenCounts struct {
	Name       string
	Results    Results
	Proc       []proc.Stats
	Ctrl       []coherence.ControllerStats
	Home       []coherence.HomeStats
	UO         []core.UniprocStats
	Reorder    []core.ReorderStats
	CET        []core.CETStats
	MET        []core.METStats
	Links      []network.LinkStat
	Violations []goldenViolation
	Injection  *goldenInjection `json:",omitempty"`
}

type goldenViolation struct {
	Kind  string
	Node  int
	Cycle uint64
}

type goldenInjection struct {
	Applied       bool
	ActivatedAt   uint64
	Detected      bool
	DetectionKind string
	Latency       uint64
}

func collectGolden(name string, s *System) goldenCounts {
	g := goldenCounts{Name: name, Results: s.ResultsSoFar(), Violations: []goldenViolation{}}
	for n := range s.cpus {
		g.Proc = append(g.Proc, s.cpus[n].Stats())
		g.Ctrl = append(g.Ctrl, s.ctrls[n].Stats())
		g.Home = append(g.Home, s.homes[n].Stats())
		g.UO = append(g.UO, checkerStats(s.uo, n, (*core.UniprocChecker).Stats))
		g.Reorder = append(g.Reorder, checkerStats(s.reorder, n, (*core.ReorderChecker).Stats))
		g.CET = append(g.CET, checkerStats(s.cet, n, (*core.CacheChecker).Stats))
		g.MET = append(g.MET, checkerStats(s.met, n, (*core.MemChecker).Stats))
	}
	g.Links = s.torus.LinkStats()
	if s.bcast != nil {
		g.Links = append(g.Links, s.bcast.LinkStats()...)
	}
	for _, v := range s.Violations() {
		g.Violations = append(g.Violations, goldenViolation{Kind: v.Kind.String(), Node: int(v.Node), Cycle: uint64(v.Cycle)})
	}
	return g
}

// checkerStats reads node n's counters from one kind of checker: the
// zero value when that checker is off (cs empty, or its entry nil).
func checkerStats[C, S any](cs []*C, n int, stats func(*C) S) S {
	if n >= len(cs) || cs[n] == nil {
		var zero S
		return zero
	}
	return stats(cs[n])
}

const goldenCycles = 110_000

// goldenRuns simulates the pinned scenarios: the protocol × model ×
// workload matrix fault-free past the first injected membar, four runs
// with buffers small enough to stall retirement, one run rolled back
// twice through Recover, and one dropped coherence message that hangs a
// core until the retire watchdog reports it.
func goldenRuns(t *testing.T) []goldenCounts {
	t.Helper()
	var out []goldenCounts
	for _, p := range []Protocol{Directory, Snooping} {
		for _, m := range Models {
			for _, w := range []Workload{OLTP(), Slashcode()} {
				name := fmt.Sprintf("%v/%v/%s", p, m, w.Name)
				s, err := NewSystem(ScaledConfig().WithProtocol(p).WithModel(m), w)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s.RunCycles(goldenCycles)
				out = append(out, collectGolden(name, s))
			}
		}
	}
	// Small buffers, so retirement stalls on a full write buffer and a
	// full verification cache, and a short membar-injection interval.
	for _, tight := range []struct {
		model  Model
		wb, vc int
	}{{TSO, 2, 64}, {RMO, 2, 64}, {TSO, 16, 4}, {RMO, 16, 4}} {
		name := fmt.Sprintf("tight/wb%d-vc%d/directory/%v/oltp", tight.wb, tight.vc, tight.model)
		cfg := ScaledConfig().WithModel(tight.model)
		cfg.Proc.WBEntries, cfg.Proc.VCWords, cfg.Proc.MembarInjectionInterval = tight.wb, tight.vc, 9_000
		s, err := NewSystem(cfg, OLTP())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.RunCycles(40_000)
		out = append(out, collectGolden(name, s))
	}
	for _, f := range []struct {
		name   string
		inj    Injection
		budget uint64
	}{
		{"recover/directory/TSO/oltp", Injection{Kind: FaultNestedRecovery, Node: 0, Cycle: 25_000}, 30_000},
		{"msg-drop/directory/TSO/oltp", Injection{Kind: FaultMsgDrop, Node: 0, Cycle: 20_000}, 60_000},
	} {
		cfg := ScaledConfig()
		_, res, s, err := RunJudged(cfg, OLTP(), &f.inj, f.budget)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		g := collectGolden(f.name, s)
		g.Injection = &goldenInjection{Applied: res.Applied, ActivatedAt: uint64(res.ActivatedAt),
			Detected: res.Detected, DetectionKind: res.DetectionKind.String(), Latency: uint64(res.Latency)}
		out = append(out, g)
	}
	return out
}

// TestGoldenCounts pins the counts above against testdata/golden_counts.json.
// The file was generated at commit 0c6eec7 (the parent of the sleep/wake
// change) with `go test -run TestGoldenCounts -update-golden .` and is
// decoded into the current structs, so counters deleted since then drop
// out of the comparison and every surviving one must match exactly.
func TestGoldenCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 22 runs of up to 110k cycles")
	}
	got := goldenRuns(t)
	var want []goldenCounts
	if goldenFile(t, "golden_counts.json", got, &want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if reflect.DeepEqual(got[i], want[i]) {
			continue
		}
		t.Errorf("%s: simulated counts differ from the golden file:\n%s", got[i].Name, firstJSONDiff(t, want[i], got[i]))
	}
	// The scenarios must keep exercising what they are here for.
	last := got[len(got)-1]
	if last.Injection == nil || last.Injection.DetectionKind != core.OperationTimeout.String() ||
		!strings.HasPrefix(last.Name, "msg-drop") {
		t.Errorf("dropped-message run no longer ends in operation-timeout: %+v", last.Injection)
	}
	if rec := got[len(got)-2]; rec.Results.Recoveries != 2 {
		t.Errorf("recovery run: %d recoveries, want 2", rec.Results.Recoveries)
	}
}

// goldenFile rewrites testdata/<name> from got under -update-golden and
// reports true; otherwise it decodes the file into want.
func goldenFile(t *testing.T, name string, got, want any) (updated bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	return false
}

// firstJSONDiff renders both values and returns the first differing line
// with a little context.
func firstJSONDiff(t *testing.T, want, got goldenCounts) string {
	t.Helper()
	render := func(g goldenCounts) [][]byte {
		b, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Split(b, []byte("\n"))
	}
	w, g := render(want), render(got)
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			from := max(0, i-6)
			return fmt.Sprintf("line %d:\n%s\n- want %s\n+ got  %s", i+1,
				bytes.Join(w[from:i], []byte("\n")), w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}
