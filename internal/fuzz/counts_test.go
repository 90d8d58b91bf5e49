package fuzz

import (
	"bytes"
	"dvmc"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
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

// TestSettledInformsCatchDataFlips pins three seed-7 all-kinds cases
// (snooping, every one) whose flipped block reached a load that the
// oracle saw bind a value no processor wrote, while the online checkers
// stayed silent: the MET's data-propagation check on the corrupted epoch
// never ran, because that epoch's Inform-Epoch was still young when the
// run ended and was folded in unchecked. A finished run now ends only
// once every inform has been judged, and all three are detected: the two
// message flips by the MET, and the cache flip, now that line ECC is
// always on, by ECC, which corrects it at that load before any checker
// could see it.
func TestSettledInformsCatchDataFlips(t *testing.T) {
	cfg := CampaignConfig{Seed: 7, Runs: 3800, FaultFrac: 1}
	for _, tc := range []struct {
		index    int
		kind     string
		model    string
		protocol string
		by       string
	}{
		{547, "msg-data-flip", "TSO", "snooping", "data-propagation-mismatch"},
		{637, "msg-data-flip", "SC", "snooping", "data-propagation-mismatch"},
		{3112, "cache-data-flip", "PSO", "snooping", "ecc-corrected"},
	} {
		c := CaseAt(cfg, tc.index)
		if c.Fault == nil || c.Fault.Kind != tc.kind || c.Model != tc.model || c.Protocol != tc.protocol {
			t.Fatalf("run %d derives %s/%s fault %+v, want %s/%s %s", tc.index, c.Model, c.Protocol, c.Fault, tc.model, tc.protocol, tc.kind)
		}
		res, _, err := RunCaseStreamed(c, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != dvmc.ClassAgreeDetect || !strings.Contains(res.Detail, "detected as "+tc.by) {
			t.Errorf("run %d (%s): %s (%s), want agree-detect as %s", tc.index, tc.kind, res.Class, res.Detail, tc.by)
		}
	}
}
