package fuzz

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/telemetry"
)

// --- generator ---

func TestGenerateDeterministic(t *testing.T) {
	gp := DefaultGenParams(12345)
	a, err := gp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := gp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from the same params differ")
	}
	ea, _ := json.Marshal(a)
	eb, _ := json.Marshal(b)
	if !bytes.Equal(ea, eb) {
		t.Fatal("serialized programs differ")
	}
}

func TestGenerateStreamSeparation(t *testing.T) {
	// Thread t's ops must not change when another thread's length does:
	// each thread owns a forked stream.
	gp := DefaultGenParams(99)
	gp.Threads = 3
	gp.OpsPerThread = 16
	a, err := gp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gp.OpsPerThread = 64
	b, err := gp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 3; tid++ {
		if !reflect.DeepEqual(a.Threads[tid], b.Threads[tid][:16]) {
			t.Fatalf("thread %d prefix changed when program length grew", tid)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	gp := DefaultGenParams(7)
	gp.Threads = 5
	gp.OpsPerThread = 200
	gp.MembarFrac = 0.2
	gp.RMWFrac = 0.2
	p, err := gp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumThreads() != 5 || p.NumOps() != 1000 {
		t.Fatalf("shape = %d threads x %d ops", p.NumThreads(), p.NumOps())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("generated program invalid: %v", err)
	}
	kinds := map[string]int{}
	for _, ops := range p.Threads {
		for _, o := range ops {
			kinds[o.Kind]++
		}
	}
	for _, k := range []string{KindLoad, KindStore, KindRMW, KindMembar} {
		if kinds[k] == 0 {
			t.Errorf("no %s ops in a 1000-op program", k)
		}
	}
}

func TestGenParamsValidate(t *testing.T) {
	bad := []GenParams{
		{Threads: 0, OpsPerThread: 1, Blocks: 1, WordsPerBlock: 1},
		{Threads: 1, OpsPerThread: 0, Blocks: 1, WordsPerBlock: 1},
		{Threads: 1, OpsPerThread: 1, Blocks: 0, WordsPerBlock: 1},
		{Threads: 1, OpsPerThread: 1, Blocks: 1, WordsPerBlock: 9},
		{Threads: 1, OpsPerThread: 1, Blocks: 1, WordsPerBlock: 1, ReadFrac: 1.5},
		{Threads: 1, OpsPerThread: 1, Blocks: 1, WordsPerBlock: 1, RMWFrac: 0.6, MembarFrac: 0.6},
		{Threads: 1, OpsPerThread: 1, Blocks: 1, WordsPerBlock: 1, MaxGap: -1},
	}
	for i, gp := range bad {
		if err := gp.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, gp)
		}
	}
}

// --- case serialization ---

func TestCaseEncodeDecodeRoundTrip(t *testing.T) {
	gp := DefaultGenParams(3)
	prog, err := gp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	c := &Case{
		Name: "rt", Model: "PSO", Protocol: "snooping", Seed: 11,
		Budget: 1000, DVMC: true, SafetyNet: true,
		Fault:   &FaultSpec{Kind: "wb-drop", Node: 1, Cycle: 50},
		Program: *prog, Expect: ClassAgreeDetect,
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCase(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatal("decode(encode(c)) != c")
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestDecodeCaseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{"model":"SC","protocol":"directory","budget":1}`, // no threads
		`{"model":"??","protocol":"directory","budget":1,"program":{"threads":[[]]}}`,
		`{"model":"SC","protocol":"??","budget":1,"program":{"threads":[[]]}}`,
		`{"model":"SC","protocol":"directory","budget":0,"program":{"threads":[[]]}}`,
		`{"model":"SC","protocol":"directory","budget":1,"bogus":1,"program":{"threads":[[]]}}`,
		`{"model":"SC","protocol":"directory","budget":1,"fault":{"kind":"nope"},"program":{"threads":[[]]}}`,
	} {
		if _, err := DecodeCase([]byte(bad)); err == nil {
			t.Errorf("DecodeCase accepted %s", bad)
		}
	}
}

// TestValidateRejectsNegativeFaultNode: a case file with a negative
// fault.node used to pass DecodeCase and die in an index-out-of-range
// panic classified as a crash.
func TestValidateRejectsNegativeFaultNode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", "detect-ctrl-state-corrupt.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCase(data)
	if err != nil {
		t.Fatal(err)
	}
	c.Fault.Node = -1
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "fault.node") {
		t.Fatalf("Validate with fault.node = -1: %v, want an error naming fault.node", err)
	}
	// Nodes past the last thread keep their modulo meaning.
	c.Fault.Node = c.Nodes() + 1
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate with fault.node past the node count: %v", err)
	}
}

func TestOpValidate(t *testing.T) {
	bad := []Op{
		{Kind: "jump"},
		{Kind: KindLoad, Addr: 3},
		{Kind: KindRMW, Addr: 0, RMW: "frobnicate"},
		{Kind: KindMembar, Mask: 0},
		{Kind: KindMembar, Mask: 0xFF},
		{Kind: KindLoad, Gap: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
}

// --- running and classification ---

func cleanCase(seed uint64) *Case {
	gp := DefaultGenParams(seed)
	gp.Threads = 2
	gp.OpsPerThread = 12
	prog, err := gp.Generate()
	if err != nil {
		panic(err)
	}
	return &Case{
		Name: "clean", Model: "SC", Protocol: "directory", Seed: seed,
		Budget: DefaultBudget, DVMC: true, Program: *prog,
	}
}

func TestRunCaseCleanAgree(t *testing.T) {
	res, trace, err := RunCase(cleanCase(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassAgreeClean {
		t.Fatalf("clean case classified %s (detail %q)", res.Class, res.Detail)
	}
	if !res.Finished {
		t.Fatal("clean case did not finish")
	}
	if len(trace) == 0 {
		t.Fatal("no trace captured")
	}
}

func TestRunCaseDeterministic(t *testing.T) {
	a, ta, err := RunCase(cleanCase(33))
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := RunCase(cleanCase(33))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ: %+v vs %+v", a, b)
	}
	if !bytes.Equal(ta, tb) {
		t.Fatal("traces differ across identical runs")
	}
}

func TestRunCaseHang(t *testing.T) {
	c := cleanCase(5)
	c.Budget = 10 // far too small to finish
	res, _, err := RunCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassHang {
		t.Fatalf("starved case classified %s", res.Class)
	}
	if res.Class.Failure() {
		t.Fatal("hang must not be a campaign failure")
	}
}

func TestRunCaseCrashRecovered(t *testing.T) {
	// A panic inside the simulator — here an RMW transform, registered
	// for this test only, that blows up when the pipeline executes it —
	// must be recovered into a crash classification: the campaign driver
	// relies on this to survive hostile cases.
	rmwTransforms["boom"] = func(mem.Word) mem.Word { panic("boom") }
	defer delete(rmwTransforms, "boom")
	c := cleanCase(8)
	c.Program.Threads[0] = append(c.Program.Threads[0], Op{Kind: KindRMW, Addr: 64, RMW: "boom"})
	res, trace, err := RunCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassCrash {
		t.Fatalf("panicking run classified %s", res.Class)
	}
	if res.Panic == "" {
		t.Fatal("crash result lost the panic message")
	}
	if trace != nil {
		t.Fatal("crash result carried a trace")
	}
}

func TestRunCaseFaultDetected(t *testing.T) {
	// A coherence-message drop under active sharing triggers the
	// timeout/checker machinery: it must classify agree-detect (or, if
	// the drop happens to hit nothing, not-applied) — never escape.
	gp := DefaultGenParams(17)
	gp.Threads = 4
	gp.OpsPerThread = 48
	gp.Blocks = 2
	prog, err := gp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	c := &Case{
		Name: "drop", Model: "TSO", Protocol: "directory", Seed: 17,
		Budget: DefaultBudget, DVMC: true,
		Fault:   &FaultSpec{Kind: "msg-drop", Node: 1, Cycle: 400},
		Program: *prog,
	}
	res, _, err := RunCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassAgreeDetect && res.Class != ClassNotApplied {
		t.Fatalf("msg-drop classified %s (detail %q)", res.Class, res.Detail)
	}
	if res.Class == ClassAgreeDetect && res.Latency == 0 && res.Detail == "" {
		t.Fatal("detection carried no latency or detail")
	}
}

// seededEscapeCase builds the canonical deterministic escape: online
// checkers off, a silent write injected mid-run at a node whose L2
// provably holds a read-only block, with the corruption provably
// consumed afterward — each thread sweep-loads every word of its own
// private block over and over, so whichever word the injector picks,
// a later load observes the rogue value and the offline oracle flags
// it (the masked branch of the differential verdict reports escape).
func seededEscapeCase() *Case {
	prog := &Program{Threads: make([][]Op, 4)}
	for th := 0; th < 4; th++ {
		base := uint64(th) * 64
		for sweep := 0; sweep < 40; sweep++ {
			for w := uint64(0); w < 8; w++ {
				prog.Threads[th] = append(prog.Threads[th], Op{Kind: KindLoad, Addr: base + 8*w})
			}
		}
	}
	return &Case{
		Name: "seeded-escape", Model: "TSO", Protocol: "directory", Seed: 7,
		Budget: DefaultBudget, DVMC: false,
		Fault:   &FaultSpec{Kind: "ctrl-silent-write", Node: 0, Cycle: 200},
		Program: *prog,
	}
}

func TestRunCaseSeededEscape(t *testing.T) {
	res, _, err := RunCase(seededEscapeCase())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassEscape {
		t.Fatalf("silent write with checkers off classified %s, want escape", res.Class)
	}
	if !res.Applied || res.Detected {
		t.Fatalf("ground truth applied=%v detected=%v", res.Applied, res.Detected)
	}
}

// --- minimizer ---

func TestMinimizeSeededEscape(t *testing.T) {
	c := seededEscapeCase()
	c.Expect = ClassEscape
	min, err := Minimize(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := min.Program.NumThreads(); got > 2 {
		t.Errorf("minimized to %d threads, want <= 2", got)
	}
	// The floor is well above a handful of ops: an escape needs the rogue
	// value consumed, so the victim thread must still be issuing loads at
	// the injection cycle — L1-hit loads retire every couple of cycles,
	// putting ~100 filler loads between warm-up and the consuming load.
	if got := min.Program.NumOps(); got > 250 {
		t.Errorf("minimized to %d ops, want <= 250", got)
	}
	// The shrink must still reproduce.
	res, _, err := RunCase(min)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassEscape {
		t.Fatalf("minimized case classified %s", res.Class)
	}
	// And be deterministic: minimizing twice gives identical bytes.
	min2, err := Minimize(seededEscapeCaseWithExpect(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := min.Encode()
	b, _ := min2.Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("minimizer output differs across runs")
	}
}

func seededEscapeCaseWithExpect() *Case {
	c := seededEscapeCase()
	c.Expect = ClassEscape
	return c
}

func TestMinimizeRejectsNonReproducing(t *testing.T) {
	c := cleanCase(4)
	c.Expect = ClassEscape // a clean case cannot reproduce an escape
	if _, err := Minimize(c, 50); err == nil {
		t.Fatal("Minimize accepted a non-reproducing expectation")
	}
}

func TestMinimizePreservesValidation(t *testing.T) {
	c := seededEscapeCaseWithExpect()
	min, err := Minimize(c, 300) // tight budget: still must return valid
	if err != nil {
		t.Fatal(err)
	}
	if err := min.Validate(); err != nil {
		t.Fatalf("minimized case invalid: %v", err)
	}
}

// --- campaign ---

func TestDeriveCaseDeterministic(t *testing.T) {
	for i := 0; i < 5; i++ {
		a := DeriveCase(101, i, 0.5, DefaultBudget)
		b := DeriveCase(101, i, 0.5, DefaultBudget)
		ea, _ := a.Encode()
		eb, _ := b.Encode()
		if !bytes.Equal(ea, eb) {
			t.Fatalf("run %d derives differently across calls", i)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("derived case %d invalid: %v", i, err)
		}
	}
}

// campaignRecordsJSON runs a campaign and returns its record table as
// JSON, and its summary.
func campaignRecordsJSON(t *testing.T, cfg CampaignConfig) ([]byte, Summary) {
	t.Helper()
	recs, sum, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// CorpusFile embeds the (differing) temp dir; reduce it to the base
	// name so record comparison checks only campaign-determined content.
	for i := range recs {
		if recs[i].CorpusFile != "" {
			recs[i].CorpusFile = filepath.Base(recs[i].CorpusFile)
		}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data, sum
}

func TestCampaignReproducibleAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := CampaignConfig{Seed: 2024, Runs: 24, FaultFrac: 0.5, Minimize: true, MinimizeBudget: 200}
	cfg.Workers, cfg.CorpusDir = 1, t.TempDir()
	d1, s1 := campaignRecordsJSON(t, cfg)
	cfg.Workers, cfg.CorpusDir = 4, t.TempDir()
	d4, s4 := campaignRecordsJSON(t, cfg)
	if !bytes.Equal(d1, d4) {
		t.Fatal("records differ between workers=1 and workers=4")
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Fatalf("summaries differ: %+v vs %+v", s1, s4)
	}
	if s1.Runs != 24 {
		t.Fatalf("Runs = %d", s1.Runs)
	}
	total := 0
	for _, n := range s1.Counts {
		total += n
	}
	if total != 24 {
		t.Fatalf("class counts sum to %d", total)
	}
}

// TestCoverageDeterministic is the reproducibility contract over several
// seeds: 1 worker and 4 workers produce the same record table, the same
// summary and byte-identical corpus trees. Seed 77's 64 runs hold an
// escape, so one tree holds a minimized reproducer and its trace.
func TestCoverageDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	files := 0
	for _, seed := range []uint64{3, 11, 77} {
		cfg := CampaignConfig{Seed: seed, Runs: 64, FaultFrac: 0.5, Minimize: true, MinimizeBudget: 100}
		cfg.Workers, cfg.CorpusDir = 1, t.TempDir()
		d1, s1 := campaignRecordsJSON(t, cfg)
		c1 := dirContents(t, cfg.CorpusDir)
		cfg.Workers, cfg.CorpusDir = 4, t.TempDir()
		d4, s4 := campaignRecordsJSON(t, cfg)
		if !bytes.Equal(d1, d4) {
			t.Fatalf("seed %d: records differ between workers=1 and workers=4", seed)
		}
		if !reflect.DeepEqual(s1, s4) {
			t.Fatalf("seed %d: summaries differ: %+v vs %+v", seed, s1, s4)
		}
		if !reflect.DeepEqual(c1, dirContents(t, cfg.CorpusDir)) {
			t.Fatalf("seed %d: corpus artifacts differ between worker counts", seed)
		}
		files += len(c1)
	}
	if files == 0 {
		t.Fatal("no seed wrote a reproducer: the corpus comparison compared nothing")
	}
}

// dirContents flattens a directory tree into relative-path -> bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunRangeShardsMatchCampaign is the fabric's sharding contract:
// executing index ranges on independent "workers" (RunRange calls) and
// concatenating the records reproduces Run exactly, and the shared
// Finalize gives the same summary.
func TestRunRangeShardsMatchCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := CampaignConfig{
		Seed: 2024, Runs: 12, Workers: 2, FaultFrac: 0.5,
		Minimize: true, MinimizeBudget: 200,
	}
	serial, sum, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sharded []Record
	for _, r := range [][2]int{{0, 5}, {5, 6}, {6, 12}} {
		recs, snap, err := RunRange(cfg, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			t.Fatal("RunRange returned a snapshot with Metrics off")
		}
		sharded = append(sharded, recs...)
	}
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(sharded)
	if !bytes.Equal(a, b) {
		t.Fatal("sharded RunRange records differ from Run")
	}
	if got, err := Finalize(cfg, sharded); err != nil || !reflect.DeepEqual(sum, got) {
		t.Fatalf("Finalize over sharded records = %+v, %v; campaign summary %+v", got, err, sum)
	}
}

// TestCoverageRangeMatchesRun is the fabric's sharding contract on a
// kind-restricted campaign: ragged RunRange shards, an empty one among
// them, reproduce Run's records exactly, and every record's case is
// CaseAt of its index — what the coordinator re-derives instead of
// shipping cases.
func TestCoverageRangeMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cc := CampaignConfig{Seed: 42, Workers: 2, FaultFrac: 0.5, Runs: 14, Kinds: []string{"msg-drop", "lsq-bad-forward"}}
	serial, _, _, err := Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	var sharded []Record
	for _, r := range [][2]int{{0, 0}, {0, 3}, {3, 4}, {4, 14}} {
		recs, _, err := RunRange(cc, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		sharded = append(sharded, recs...)
	}
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(sharded)
	if !bytes.Equal(a, b) {
		t.Fatal("sharded RunRange records differ from Run")
	}
	for _, rec := range serial {
		got, _ := rec.Case.Encode()
		want, _ := CaseAt(cc, rec.Index).Encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d's case is not CaseAt(cfg, %d)", rec.Index, rec.Index)
		}
	}
}

// TestCoverageRangeBounds: any range inside the case space is a shard,
// wherever it starts and however short (TestRunRangeBounds refuses the
// ones outside it).
func TestCoverageRangeBounds(t *testing.T) {
	cc := CampaignConfig{Seed: 1, Runs: 8, Budget: 2000}
	for _, r := range [][2]int{{2, 6}, {8, 8}, {7, 8}} {
		recs, _, err := RunRange(cc, r[0], r[1])
		if err != nil || len(recs) != r[1]-r[0] {
			t.Errorf("RunRange(%d, %d) = %d records, %v", r[0], r[1], len(recs), err)
		}
	}
}

// TestCampaignShape: a campaign is Runs cases and nothing else. Validate
// refuses what cannot shape one, and the zero budgets resolve to their
// defaults in one place.
func TestCampaignShape(t *testing.T) {
	cc := CampaignConfig{Runs: 64}.withDefaults()
	if cc.Budget != DefaultBudget || cc.MinimizeBudget != DefaultMinimizeBudget {
		t.Errorf("defaults: budget %d, minimize budget %d", cc.Budget, cc.MinimizeBudget)
	}
	for _, cfg := range []CampaignConfig{
		{Runs: 1},
		{Runs: 64, FaultFrac: 1, Kinds: []string{"msg-drop"}},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	for _, cfg := range []CampaignConfig{
		{Runs: 0},
		{Runs: -1},
		{Runs: 4, FaultFrac: -0.1},
		{Runs: 4, FaultFrac: 1.5},
		{Runs: 4, Kinds: []string{"bogus"}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v validated", cfg)
		}
	}
}

// TestRunRangeBounds: out-of-range shards are refused.
func TestRunRangeBounds(t *testing.T) {
	cfg := CampaignConfig{Seed: 1, Runs: 4}
	for _, r := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		if _, _, err := RunRange(cfg, r[0], r[1]); err == nil {
			t.Errorf("RunRange(%d, %d) accepted an invalid range", r[0], r[1])
		}
	}
}

// TestCampaignMetricsDeterministic: with Metrics on, classification is
// unchanged and the merged snapshot is byte-identical across worker
// counts and against a sharded RunRange merge.
func TestCampaignMetricsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := CampaignConfig{Seed: 7, Runs: 8, FaultFrac: 0.5, Metrics: true}
	encode := func(workers int) ([]byte, []byte) {
		c := cfg
		c.Workers = workers
		recs, _, snap, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatal("Metrics campaign returned a nil snapshot")
		}
		var buf bytes.Buffer
		if err := snap.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rj, _ := json.Marshal(recs)
		return rj, buf.Bytes()
	}
	recs1, snap1 := encode(1)
	recs4, snap4 := encode(4)
	if !bytes.Equal(recs1, recs4) {
		t.Fatal("Metrics-mode records differ across worker counts")
	}
	if !bytes.Equal(snap1, snap4) {
		t.Fatal("merged snapshots differ across worker counts")
	}

	// Uninstrumented classification must match exactly.
	plain := cfg
	plain.Metrics = false
	recsPlain, _, snapPlain, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if snapPlain != nil {
		t.Fatal("uninstrumented campaign returned a snapshot")
	}
	pj, _ := json.Marshal(recsPlain)
	if !bytes.Equal(pj, recs1) {
		t.Fatal("telemetry instrumentation changed campaign classification")
	}

	// Shard-merge of per-range snapshots equals the campaign's merge.
	var snaps []*telemetry.Snapshot
	for _, r := range [][2]int{{0, 3}, {3, 8}} {
		_, snap, err := RunRange(cfg, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	merged, err := telemetry.MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := merged.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), snap1) {
		t.Fatal("shard-merged snapshot differs from campaign merge")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Seed: 9, Runs: 3, Counts: map[Class]int{
		ClassAgreeClean: 2, ClassEscape: 1,
	}, Failures: 1}
	out := s.String()
	for _, want := range []string{"seed=9", "runs=3", "agree-clean", "escape"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
	if !s.Failed() {
		t.Fatal("summary with an escape must report failure")
	}
}

func TestSortRecordsByClass(t *testing.T) {
	recs := []Record{
		{Index: 0, Result: RunResult{Class: ClassAgreeClean}},
		{Index: 1, Result: RunResult{Class: ClassCrash}},
		{Index: 2, Result: RunResult{Class: ClassEscape}},
		{Index: 3, Result: RunResult{Class: ClassEscape}},
	}
	got := SortRecordsByClass(recs)
	wantIdx := []int{2, 3, 1, 0} // escapes first (stable by index), then crash, then clean
	for i, w := range wantIdx {
		if got[i].Index != w {
			t.Fatalf("position %d: got index %d, want %d", i, got[i].Index, w)
		}
	}
}

// --- corpus ---

func TestCorpusWriteLoadReplay(t *testing.T) {
	dir := t.TempDir()
	c := seededEscapeCaseWithExpect()
	path, err := WriteCase(dir, "escape-silent-write", c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatal("corpus round trip lost data")
	}
	results, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].OK {
		t.Fatalf("replay = %+v", results)
	}
	if results[0].Got != ClassEscape {
		t.Fatalf("replay class = %s", results[0].Got)
	}
}

func TestReplayDirMissing(t *testing.T) {
	results, err := ReplayDir(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(results) != 0 {
		t.Fatalf("missing dir: results=%v err=%v", results, err)
	}
}

// TestCorpusRegression replays the committed corpus: every reproducer
// must still show its recorded classification and re-record its
// committed .trc byte for byte (the cross-commit identity pin for
// simulator refactors).
func TestCorpusRegression(t *testing.T) {
	results, err := ReplayDir(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("committed corpus is empty")
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("%s: expect %s, got %s (%s%s)", r.Path, r.Expect, r.Got, r.Result.Panic, r.TraceDiff)
		}
		if _, err := os.Stat(strings.TrimSuffix(r.Path, ".json") + ".trc"); err != nil {
			t.Errorf("%s has no committed trace: %v", r.Path, err)
		}
	}
}

// TestReplayReportsTraceDrift: a reproducer whose committed trace no
// longer matches fails replay, naming the case and the first differing
// offset.
func TestReplayReportsTraceDrift(t *testing.T) {
	dir := t.TempDir()
	c := seededEscapeCaseWithExpect()
	if _, err := WriteCase(dir, "drift", c); err != nil {
		t.Fatal(err)
	}
	_, trace, err := RunCase(c)
	if err != nil || len(trace) < 40 {
		t.Fatalf("RunCase: %d trace bytes, err %v", len(trace), err)
	}
	if _, err := WriteTrace(dir, "drift", trace); err != nil {
		t.Fatal(err)
	}
	if results, _ := ReplayDir(dir); len(results) != 1 || !results[0].OK {
		t.Fatalf("faithful trace rejected: %+v", results)
	}
	trace[37] ^= 0x40
	if _, err := WriteTrace(dir, "drift", trace); err != nil {
		t.Fatal(err)
	}
	results, _ := ReplayDir(dir)
	if len(results) != 1 || results[0].OK {
		t.Fatalf("drifted trace accepted: %+v", results)
	}
	if d := results[0].TraceDiff; !strings.Contains(d, "drift.trc at offset 37 ") {
		t.Errorf("TraceDiff = %q, want case name and offset 37", d)
	}
}
