package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dvmc/internal/span"
)

// campaignSpanDump runs a small campaign at the given worker count and
// returns the -spans-out artifact bytes.
func campaignSpanDump(t *testing.T, workers int) []byte {
	t.Helper()
	recs, _, _, err := Run(CampaignConfig{
		Seed: 2024, Runs: 8, Workers: workers, FaultFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.spans")
	if _, err := WriteSpans(recs, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWriteSpansIdenticalAcrossWorkers pins the worker-count leg of the
// span determinism doctrine: the campaign span artifact is
// byte-identical for workers=1 and workers=4, and decodes cleanly.
func TestWriteSpansIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	a := campaignSpanDump(t, 1)
	b := campaignSpanDump(t, 4)
	if !bytes.Equal(a, b) {
		t.Fatalf("span dumps differ between workers=1 (%d bytes) and workers=4 (%d bytes)", len(a), len(b))
	}
	_, spans, err := span.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("campaign span dump is empty")
	}
}

// TestCorpusCaseSpansExplainVerdict re-runs a committed detect-class
// corpus reproducer with span recording and checks its flight
// recording carries the verdict end-to-end: the fault span closes as
// detected and contains the armed and violation transitions the
// EXPERIMENTS.md timeline walkthrough cites.
func TestCorpusCaseSpansExplainVerdict(t *testing.T) {
	c, err := LoadCase(filepath.Join("testdata", "corpus", "detect-wb-corrupt-tso.json"))
	if err != nil {
		t.Fatal(err)
	}
	dump, err := CaseSpans(c)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CaseSpans(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, again) {
		t.Fatal("corpus case span dump is not deterministic")
	}
	_, spans, err := span.Decode(dump)
	if err != nil {
		t.Fatal(err)
	}
	var flight *span.Span
	for i := range spans {
		if spans[i].Family == span.FamilyFault {
			flight = &spans[i]
		}
	}
	if flight == nil {
		t.Fatal("no fault flight recording in corpus case dump")
	}
	if flight.Outcome != span.OutcomeDetected {
		t.Fatalf("flight outcome %v, want detected", flight.Outcome)
	}
	var armed, violation bool
	for _, e := range flight.Events {
		switch e.Label {
		case span.LabelArmed:
			armed = true
		case span.LabelViolation:
			violation = true
		}
	}
	if !armed || !violation {
		t.Fatalf("flight transitions incomplete: armed=%v violation=%v (%d events)", armed, violation, len(flight.Events))
	}
}
