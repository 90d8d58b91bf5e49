package fuzz

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/campaign_counts.json from this build")

// TestCampaignCounts keeps the escapes visible. A fixed all-kinds
// campaign (seed 7, 3800 runs, every run injecting, no minimization)
// has its summary's per-kind × per-class counts (the -json summary's
// by_kind) compared with the committed testdata/campaign_counts.json.
// Any change fails, in either direction: a fixed escape as much as a
// new one, until the file is regenerated with -update-golden and the
// reason recorded.
func TestCampaignCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("3800-run campaign in -short mode")
	}
	_, sum, _, err := Run(CampaignConfig{Seed: 7, Runs: 3800, FaultFrac: 1, Minimize: false})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(sum.ByKind, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "campaign_counts.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("per-kind × per-class counts differ from %s; if the change is meant, regenerate with -update-golden and record why.\ngot:\n%s", path, got)
	}
}
