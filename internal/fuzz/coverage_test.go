package fuzz

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func covConfig(seed uint64, workers int, dir string) CampaignConfig {
	return CampaignConfig{
		Seed: seed, Workers: workers, FaultFrac: 0.5,
		CorpusDir: dir, Minimize: true, MinimizeBudget: 100,
		Runs: 16, Generations: 2, PerGen: 4,
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

// TestCoverageDeterministic is the coverage campaign's reproducibility
// contract: for several seeds, 1 worker and 4 workers produce the same
// record table, the same summary (including the coverage map's shape),
// and byte-identical corpus artifacts — reproducers and distilled
// seeds alike.
func TestCoverageDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	for _, seed := range []uint64{3, 11, 77} {
		d1dir, d4dir := t.TempDir(), t.TempDir()
		d1, s1 := campaignRecordsJSON(t, covConfig(seed, 1, d1dir))
		d4, s4 := campaignRecordsJSON(t, covConfig(seed, 4, d4dir))
		if !bytes.Equal(d1, d4) {
			t.Fatalf("seed %d: records differ between workers=1 and workers=4", seed)
		}
		if !reflect.DeepEqual(s1, s4) {
			t.Fatalf("seed %d: summaries differ: %+v vs %+v", seed, s1, s4)
		}
		if s1.Features == 0 || s1.PoolSize == 0 {
			t.Fatalf("seed %d: empty coverage map: %+v", seed, s1)
		}
		if !reflect.DeepEqual(dirContents(t, d1dir), dirContents(t, d4dir)) {
			t.Fatalf("seed %d: corpus artifacts differ between worker counts", seed)
		}
	}
}

// TestCoverageRangeMatchesRun is the fabric's sharding contract for a
// campaign with generations: executing each generation as independent
// RunRange shards — with the pool CoveragePool distills from earlier
// records — reproduces Run's records exactly.
func TestCoverageRangeMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cc := CampaignConfig{Seed: 42, Workers: 2, FaultFrac: 0.5, Runs: 14, Generations: 2, PerGen: 4}
	serial, _, _, err := Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	var sharded []Record
	for g := 0; g <= cc.Generations; g++ {
		pool := CoveragePool(cc, sharded, g)
		from, to := cc.GenBounds(g)
		for _, r := range [][2]int{{from, from + 2}, {from + 2, to}} {
			recs, _, err := RunRange(cc, r[0], r[1], pool...)
			if err != nil {
				t.Fatal(err)
			}
			sharded = append(sharded, recs...)
		}
	}
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(sharded)
	if !bytes.Equal(a, b) {
		t.Fatal("sharded RunRange records differ from Run")
	}
}

// TestCoverageRangeBounds: ranges outside the case space or spanning a
// generation boundary are refused.
func TestCoverageRangeBounds(t *testing.T) {
	cc := CampaignConfig{Seed: 1, Runs: 8, Generations: 1, PerGen: 4}
	for _, r := range [][2]int{{-1, 2}, {0, 9}, {3, 2}, {2, 6}} {
		if _, _, err := RunRange(cc, r[0], r[1]); err == nil {
			t.Errorf("RunRange(%d, %d) accepted an invalid range", r[0], r[1])
		}
	}
}

// TestCoverageBeatsRandom is the acceptance bar for breeding: at an
// equal case budget, the campaign with generations must reach strictly
// more distinct coverage features than the purely random one. A random
// campaign runs uninstrumented and records no features, so its arm
// counts them here, with the same CaseFeatures over the same cases. The
// budget sits past random's saturation knee (~100 runs for this seed):
// below it, fresh random programs out-discover mutants on sheer shape
// diversity; past it, random's rate decays coupon-collector style
// while guided breeding keeps finding regimes — larger systems, wider
// address pools, parameterized fault windows — that random sampling
// cannot reach.
func TestCoverageBeatsRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	const total = 192
	random := CampaignConfig{Seed: 9, Workers: 4, FaultFrac: 0.5, Runs: total}
	guided := random
	guided.Generations, guided.PerGen = 4, total/8
	if guided.InitRuns() != total/2 {
		t.Fatalf("guided prefix = %d, want %d", guided.InitRuns(), total/2)
	}
	_, gsum, _, err := Run(guided)
	if err != nil {
		t.Fatal(err)
	}
	recs, rsum, _, err := Run(random)
	if err != nil {
		t.Fatal(err)
	}
	if rsum.Features != 0 || recs[0].Features != nil {
		t.Fatalf("random campaign recorded features: %+v", rsum)
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		res, snap, err := RunCaseStreamed(rec.Case, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range CaseFeatures(rec.Case, res, snap) {
			seen[f] = true
		}
	}
	if gsum.Features <= len(seen) {
		t.Fatalf("guided campaign reached %d features, random reached %d — guidance must win",
			gsum.Features, len(seen))
	}
	t.Logf("guided=%d random=%d features", gsum.Features, len(seen))
}

// TestCaseFeaturesDeterministic: the signature is a pure sorted set.
func TestCaseFeaturesDeterministic(t *testing.T) {
	c := DeriveCase(5, 0, 1, DefaultBudget)
	res, snap, err := RunCaseStreamed(c, true)
	if err != nil {
		t.Fatal(err)
	}
	a := CaseFeatures(c, res, snap)
	b := CaseFeatures(c, res, snap)
	if len(a) == 0 {
		t.Fatal("no features extracted")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CaseFeatures is not deterministic")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("features not sorted/deduplicated at %d: %q >= %q", i, a[i-1], a[i])
		}
	}
}

// TestMutateCaseValid: every mutant over a spread of seeds and indices
// is structurally valid and stays within the growth bound.
func TestMutateCaseValid(t *testing.T) {
	cc := CampaignConfig{Seed: 123, FaultFrac: 0.5, Runs: 52, Generations: 3, PerGen: 16}.withDefaults()
	pool := []*Case{
		DeriveCase(123, 0, 1, DefaultBudget),
		DeriveCase(123, 1, 0, DefaultBudget),
		DeriveCase(123, 2, 1, DefaultBudget),
	}
	for i := cc.InitRuns(); i < cc.Runs; i++ {
		c := CaseAt(cc, i, pool)
		if err := c.Validate(); err != nil {
			t.Fatalf("mutant %d invalid: %v", i, err)
		}
		for ti, ops := range c.Program.Threads {
			if len(ops) > maxMutatedOps {
				t.Fatalf("mutant %d thread %d grew to %d ops", i, ti, len(ops))
			}
		}
		again := CaseAt(cc, i, pool)
		ea, _ := c.Encode()
		eb, _ := again.Encode()
		if !bytes.Equal(ea, eb) {
			t.Fatalf("mutant %d derives differently across calls", i)
		}
	}
}

// TestCampaignShape: the generation layout is derived from Runs, with
// PerGen defaulted in one place and a prefix of at least one case; a
// product that would overflow is refused, not multiplied.
func TestCampaignShape(t *testing.T) {
	for _, tc := range []struct {
		cfg        CampaignConfig
		init, last int // prefix size, first index of the last generation
	}{
		{CampaignConfig{Runs: 64}, 64, 0},
		{CampaignConfig{Runs: 64, PerGen: 8}, 64, 0},
		{CampaignConfig{Runs: 64, Generations: 2, PerGen: 8}, 48, 56},
		{CampaignConfig{Runs: 64, Generations: 4}, 32, 56},
		{CampaignConfig{Runs: 5, Generations: 4}, 1, 4},
	} {
		if err := tc.cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", tc.cfg, err)
			continue
		}
		from, to := tc.cfg.GenBounds(tc.cfg.Generations)
		if tc.cfg.InitRuns() != tc.init || from != tc.last || to != tc.cfg.Runs {
			t.Errorf("%+v: prefix %d, last generation [%d, %d); want %d, [%d, %d)",
				tc.cfg, tc.cfg.InitRuns(), from, to, tc.init, tc.last, tc.cfg.Runs)
		}
		if g := tc.cfg.GenOf(tc.cfg.Runs - 1); g != tc.cfg.Generations {
			t.Errorf("%+v: last run is in generation %d", tc.cfg, g)
		}
	}
	for _, cfg := range []CampaignConfig{
		{Runs: 64, Generations: -1},
		{Runs: 64, Generations: 2, PerGen: -1},
		{Runs: 64, Generations: 8, PerGen: 8},
		{Runs: 4, Generations: 4},
		{Runs: 1, Generations: 1 << 40, PerGen: 1 << 40},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v validated", cfg)
		}
	}
}

// TestGoldenGuidedCampaign pins a campaign with generations byte for
// byte: the record table, the summary and the corpus tree of seed 5 /
// 64 runs / 2 generations x 8 / fault-frac 0.5, at one worker and at
// four. The digests were taken at commit 3c9d5f8 — the parent of the
// fold of the separate coverage driver into Run — from that driver with
// a 48-run prefix set by hand.
func TestGoldenGuidedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	const (
		wantRecords = "a094838f2741f4392a8b30b8181458d2a50b95c2a4024816e4f733b65ac5565b"
		wantSummary = "6f88942c4a254100f03a9e01f4f4d90378ab7f5c8064b2d077d2a340d6a0de00"
		wantCorpus  = "0a3a81f4a3c74bebf5ce9c0e71d90a7dc44ab64562f0dea3001326cf563cffd5"
	)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		records, sum := campaignRecordsJSON(t, CampaignConfig{
			Seed: 5, Runs: 64, Generations: 2, PerGen: 8, FaultFrac: 0.5,
			Workers: workers, CorpusDir: dir, Minimize: true,
		})
		summary, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		tree := dirContents(t, dir)
		paths := make([]string, 0, len(tree))
		for p := range tree {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		corpus := sha256.New()
		for _, p := range paths {
			fmt.Fprintf(corpus, "%s %d\n", filepath.ToSlash(p), len(tree[p]))
			corpus.Write([]byte(tree[p]))
		}
		for _, d := range []struct{ what, got, want string }{
			{"record table", fmt.Sprintf("%x", sha256.Sum256(records)), wantRecords},
			{"summary", fmt.Sprintf("%x", sha256.Sum256(summary)), wantSummary},
			{"corpus tree", fmt.Sprintf("%x", corpus.Sum(nil)), wantCorpus},
		} {
			if d.got != d.want {
				t.Errorf("workers=%d: %s digest %s, golden %s", workers, d.what, d.got, d.want)
			}
		}
	}
}
