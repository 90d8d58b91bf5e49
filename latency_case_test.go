package dvmc_test

import (
	"fmt"
	"slices"
	"testing"

	"dvmc"
	"dvmc/internal/fuzz"
)

// TestSnapshotLatencyIsTheVerdict runs seed-7 campaign cases whose
// violation lists and verdicts disagree on what to count: two
// invariants firing for one fault (case 4, a wb-drop), one invariant
// firing twice (case 502, a wb-drop; 1453, a msg-misroute with two
// operation-timeouts) and an ECC correction, which is no violation at
// all (case 43, a cache-data-flip). Each snapshot's latency section must
// be exactly the judged detection — one observation, its latency under
// its kind, as the verdict's detail spells them — however many
// violations the run recorded.
func TestSnapshotLatencyIsTheVerdict(t *testing.T) {
	cfg := fuzz.CampaignConfig{Seed: 7, Runs: 3800, FaultFrac: 1}
	for _, tc := range []struct {
		index int
		kind  string
	}{
		{4, "wb-drop"},
		{502, "wb-drop"},
		{1453, "msg-misroute"},
		{43, "cache-data-flip"},
	} {
		c := fuzz.CaseAt(cfg, tc.index)
		if c.Fault == nil || c.Fault.Kind != tc.kind {
			t.Fatalf("case %d: fault %+v, want a %s", tc.index, c.Fault, tc.kind)
		}
		j, snap, err := fuzz.RunCaseStreamed(c, true)
		if err != nil {
			t.Fatal(err)
		}
		if j.Class != dvmc.ClassAgreeDetect {
			t.Fatalf("case %d: class %s (%s), want %s", tc.index, j.Class, j.Detail, dvmc.ClassAgreeDetect)
		}
		// One line per observation, spelt as the verdict's detail is.
		var got []string
		for _, l := range snap.Latency {
			for _, v := range l.Values {
				got = append(got, fmt.Sprintf("detected as %s after %.0f cycles", l.Invariant, v))
			}
		}
		if !slices.Equal(got, []string{j.Detail}) {
			t.Errorf("case %d (%s, %d events): latency section %q, want exactly [%q]", tc.index, tc.kind, len(snap.Events), got, j.Detail)
		}
	}
}
