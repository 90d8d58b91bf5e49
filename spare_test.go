package dvmc

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dvmc/internal/proc"
)

// spareRun is what a run leaves that a spare must not change: the
// sample's Results or the injection's result, the online violations, the
// trace and the live checkpoints, which a recovery would restore.
type spareRun struct {
	res   Results
	inj   InjectionResult
	viols []Violation
	trace []byte
	cps   []checkpointState
}

// onSpare runs fn with every system it builds drawing sp (nil: a new,
// empty one): the tests' way to build on an explicit spare. fn builds one
// system at a time and retires each before the next.
func onSpare(sp *spare, fn func()) {
	if sp == nil {
		sp = new(spare)
	}
	saved := spares
	spares = &sync.Pool{New: func() any { return sp }}
	defer func() { spares = saved }()
	fn()
}

// runSample runs one Figure 5 repetition of cfg on w, traced, on sp (nil:
// fresh), and retires the system into sp.
func runSample(t *testing.T, cfg Config, w Workload, sp *spare) (r spareRun) {
	t.Helper()
	onSpare(sp, func() {
		s, err := NewSystem(cfg.WithTrace(TraceOn()), w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(spareTxns, 30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		r = finish(t, s, spareRun{res: res})
	})
	return r
}

// runInj runs injection j of cfg's campaign as Evaluate numbers it,
// traced, on sp (nil: fresh), and retires the system into sp.
func runInj(t *testing.T, cfg Config, j int, sp *spare) (r spareRun) {
	t.Helper()
	inj := DeriveCampaignInjections(cfg, j+1)[j]
	onSpare(sp, func() {
		_, res, s, err := RunJudged(cfg.WithSeed(cfg.Seed+uint64(j)).WithTrace(TraceOn()), OLTP(), &inj, spareBudget)
		if err != nil {
			t.Fatal(err)
		}
		r = finish(t, s, spareRun{inj: res})
	})
	return r
}

// finish adds to r what s leaves and retires s.
func finish(t *testing.T, s *System, r spareRun) spareRun {
	t.Helper()
	r.viols = append([]Violation(nil), s.Violations()...)
	tr, err := s.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	r.trace = tr
	if s.snMgr != nil {
		for _, cp := range s.snMgr.Live() {
			// Copies, nil when empty: the record's buffers go to the spare.
			st := *cp.State.(*checkpointState)
			st.nodes = append([]nodeCapture(nil), st.nodes...)
			st.dirty = append([]dirtyLine(nil), st.dirty...)
			st.cpus = append([]proc.ArchState(nil), st.cpus...)
			r.cps = append(r.cps, st)
		}
	}
	s.Retire()
	return r
}

const (
	spareTxns   = 20
	spareBudget = 60_000
)

// otherRows are two systems that differ from cfg in model and DVMC set,
// with SafetyNet on: the first has cfg's protocol, the second the other
// one. A spare that ran both in turn has just run a different row and
// holds every kind of storage, sized and filled by other machines.
func otherRows(cfg Config) [2]Config {
	model, other := RMO, Snooping
	if cfg.Model == RMO {
		model = SC
	}
	if cfg.Protocol == Snooping {
		other = Directory
	}
	var out [2]Config
	for i, protocol := range []Protocol{cfg.Protocol, other} {
		o := ErrorDetectionConfig(ErrorDetectionRow{protocol, model}, cfg.Seed+17)
		if cfg.DVMC == Full() {
			o.DVMC = DVMCConfig{CacheCoherence: true, UniprocessorOrdering: true}
		}
		out[i] = o
	}
	return out
}

func equalRuns(t *testing.T, what string, fresh, spared spareRun) {
	t.Helper()
	if !reflect.DeepEqual(fresh.res, spared.res) {
		t.Errorf("%s: Results differ on a spare:\nfresh %+v\nspare %+v", what, fresh.res, spared.res)
	}
	if fresh.inj != spared.inj {
		t.Errorf("%s: InjectionResult differs on a spare:\nfresh %v\nspare %v", what, fresh.inj, spared.inj)
	}
	if !reflect.DeepEqual(fresh.viols, spared.viols) {
		t.Errorf("%s: violations differ on a spare: fresh %v, spare %v", what, fresh.viols, spared.viols)
	}
	if !reflect.DeepEqual(fresh.cps, spared.cps) {
		t.Errorf("%s: the live checkpoints differ on a spare", what)
	}
	if !bytes.Equal(fresh.trace, spared.trace) {
		t.Errorf("%s: traces differ on a spare (%d and %d bytes)", what, len(fresh.trace), len(spared.trace))
	}
}

// TestSpareRunEqualsFresh runs every Figure 5 sample and the first two
// injections of every Section 6.1 row once fresh and once on a spare
// that has just run different rows (otherRows), and requires the same results,
// violations and trace bytes. Under -short, one injection per row. Then
// Figure.Inject, drawing what Evaluate's pool retired, must give each
// injection Evaluate's result. TestSpareCaseEqualsFresh does the same
// for fuzz cases.
func TestSpareRunEqualsFresh(t *testing.T) {
	samples, _ := plan([]Figure{Figures()[2]})
	for _, job := range samples {
		cfg := job.cfg.WithSeed(100)
		sp := &spare{}
		for _, o := range otherRows(cfg) {
			runSample(t, o, job.w, sp)
		}
		equalRuns(t, job.w.Name+" "+configName(cfg), runSample(t, cfg, job.w, nil), runSample(t, cfg, job.w, sp))
	}
	perRow := 2
	if testing.Short() {
		perRow = 1
	}
	for _, row := range ErrorDetectionRows() {
		cfg := ErrorDetectionConfig(row, 4)
		for j := 0; j < perRow; j++ {
			sp := &spare{}
			for _, o := range otherRows(cfg) {
				runInj(t, o, 0, sp)
			}
			equalRuns(t, configName(cfg), runInj(t, cfg, j, nil), runInj(t, cfg, j, sp))
		}
	}
	fig := ErrorDetection(1, spareBudget, 4)
	tables, err := Evaluate([]Figure{fig}, ExperimentOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range tables[0].Injections {
		if got, err := fig.Inject(i); err != nil || got != want {
			t.Errorf("Inject(%d) = %v, %v; Evaluate ran it as %v", i, got, err, want)
		}
	}
}

// TestSpareOfOtherGeometryIsNotUsed builds on a spare whose L2 and L1
// chunks have twice the ways: they do not fit, so the run takes none of
// them (coherence.TestSpareTakesOnlyFittingChunks checks that) and still
// equals a fresh one.
func TestSpareOfOtherGeometryIsNotUsed(t *testing.T) {
	cfg := ErrorDetectionConfig(ErrorDetectionRow{Directory, TSO}, 4)
	wide := otherRows(cfg)[0]
	wide.Memory.L2Ways *= 2
	wide.Memory.L1Ways *= 2
	sp := &spare{}
	runInj(t, wide, 0, sp)
	equalRuns(t, "after a wider cache", runInj(t, cfg, 0, nil), runInj(t, cfg, 0, sp))
}

// configName names a configuration in a failure message.
func configName(cfg Config) string {
	return cfg.Protocol.String() + "/" + cfg.Model.String()
}

// TestSpareSteadyStateAllocBudget runs the same Section 6.1 injection,
// Figure 5 sample and fuzz-shaped case twice on one spare: the second
// run, which finds the first one's storage, must allocate under a share
// of what the first allocated. The injection and the sample are held to
// 40 % of the bytes (26 % and 22 % at these seeds). The case is held to
// 85 % of the heap objects (79 % at this seed). What a case's second
// run still allocates is mostly its coherence messages.
func TestSpareSteadyStateAllocBudget(t *testing.T) {
	cfg := ErrorDetectionConfig(ErrorDetectionRow{Directory, TSO}, 4)
	sample := protectConfig(Directory, TSO).WithSeed(100)
	for _, tc := range []struct {
		name     string
		objects  bool // the share is of heap objects, not bytes
		fraction float64
		run      func()
	}{
		{"injection", false, 0.4, func() {
			if _, err := RunInjection(cfg, OLTP(), DeriveCampaignInjections(cfg, 1)[0], spareBudget); err != nil {
				t.Fatal(err)
			}
		}},
		{"sample", false, 0.4, func() {
			if _, err := runtimeSample(sample, Barnes(), ExperimentOpts{Transactions: spareTxns, MaxCycles: 30_000_000, Repetitions: 1, SeedBase: 100}); err != nil {
				t.Fatal(err)
			}
		}},
		{"fuzz case", true, 0.85, func() {
			// A fuzz campaign's shape: four threads of a finite program
			// on a 4-node snooping/TSO system with SafetyNet, judged by
			// the stream oracle, a message fault injected.
			caseCfg := injCfg().WithProtocol(Snooping).WithModel(TSO)
			caseCfg.SafetyNet = true
			inj := Injection{Kind: FaultMsgMisroute, Node: 1, Cycle: 300}
			_, _, s, err := RunJudged(caseCfg, windowWorkload(), &inj, 100_000)
			if err != nil {
				t.Fatal(err)
			}
			s.Retire()
		}},
	} {
		sp := &spare{}
		run := func() { onSpare(sp, tc.run) }
		first, second := allocated(run), allocated(run)
		unit, a, b := "bytes", first.bytes, second.bytes
		if tc.objects {
			unit, a, b = "heap objects", first.objects, second.objects
		}
		t.Logf("%s: first run %d %s, second %d (%.2f)", tc.name, a, unit, b, float64(b)/float64(a))
		if float64(b) > tc.fraction*float64(a) {
			t.Errorf("%s: the run on a spare allocated %d %s, over %.2f of the first run's %d", tc.name, b, unit, tc.fraction, a)
		}
	}
}

// allocation is what a function allocated.
type allocation struct{ bytes, objects uint64 }

// allocated is the bytes and heap objects fn allocates.
func allocated(fn func()) allocation {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return allocation{b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs}
}

// TestSpareHandOffAcrossWorkers evaluates Figure 5 and a Section 6.1
// table twice at two workers, so the spares the systems retire pass
// through the root's pool into the next systems built, possibly on
// another goroutine (the race detector's case), and requires the tables
// of one worker, which hands its spare from each system to the next,
// each time.
func TestSpareHandOffAcrossWorkers(t *testing.T) {
	figs := []Figure{Figures()[2], ErrorDetection(1, 30_000, 4)}
	opts := ExperimentOpts{Transactions: 8, MaxCycles: 20_000_000, Repetitions: 1, SeedBase: 3, Workers: 1}
	serial, err := Evaluate(figs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 2
	for pass := 0; pass < 2; pass++ {
		got, err := Evaluate(figs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if got[i].String() != serial[i].String() || !reflect.DeepEqual(got[i].Injections, serial[i].Injections) {
				t.Errorf("pass %d: %s differs at two workers\nserial:\n%s\ntwo workers:\n%s", pass, figs[i].Name, serial[i], got[i])
			}
		}
	}
}

// TestRetiredSystemFailsClosed retires a system twice, which is one
// retirement, and then requires every way of running it to panic naming
// the misuse.
func TestRetiredSystemFailsClosed(t *testing.T) {
	s, err := NewSystem(ScaledConfig().WithNodes(4), OLTP())
	if err != nil {
		t.Fatal(err)
	}
	s.RunCycles(1000)
	s.Retire()
	s.Retire()
	if s.sp != nil {
		t.Fatal("a retired system keeps its spare")
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Run", func() { s.Run(1, 1000) }},
		{"RunCycles", func() { s.RunCycles(1) }},
		{"RunToCompletion", func() { s.RunToCompletion(1000) }},
		{"DrainCheckers", s.DrainCheckers},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.name+" on a retired System") {
					t.Errorf("%s on a retired system: recovered %q", tc.name, msg)
				}
			}()
			tc.run()
		}()
	}
}
