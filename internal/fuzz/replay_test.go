package fuzz

import (
	"bytes"
	"path/filepath"
	"testing"

	"dvmc"
	"dvmc/internal/span"
)

// replaySpans replays one corpus file with span recording on and
// returns the dump of that same execution, failing unless the replay
// still reproduces the case's classification and committed trace.
func replaySpans(t *testing.T, path string) []byte {
	t.Helper()
	rr, sys := ReplayFile(path, func(cfg dvmc.Config) dvmc.Config { return cfg.WithSpans(dvmc.SpansOn()) })
	if !rr.OK {
		t.Fatalf("replay with spans on: expect %s, got %s; %s %s", rr.Expect, rr.Got, rr.Result.Panic, rr.TraceDiff)
	}
	dump, err := sys.SpanBytes()
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

// TestCorpusCaseSpansExplainVerdict replays a committed detect-class
// corpus reproducer with span recording and checks its flight recording
// carries the verdict end-to-end: the fault span closes as detected and
// contains the armed and violation transitions the EXPERIMENTS.md
// timeline walkthrough cites. The dump comes from the replay that
// re-checked the case, and is the same on a second replay.
func TestCorpusCaseSpansExplainVerdict(t *testing.T) {
	path := filepath.Join("testdata", "corpus", "detect-wb-corrupt-tso.json")
	dump := replaySpans(t, path)
	if again := replaySpans(t, path); !bytes.Equal(dump, again) {
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

// TestReplayObservedCorpus replays every committed reproducer with spans
// and telemetry on: switching the observers on must not perturb the run,
// so each case keeps its classification and re-records its .trc byte
// for byte.
func TestReplayObservedCorpus(t *testing.T) {
	files, err := CorpusFiles(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	observe := func(cfg dvmc.Config) dvmc.Config {
		return dvmc.Outputs{Metrics: "m", Spans: "s"}.Observe(cfg)
	}
	for _, path := range files {
		rr, sys := ReplayFile(path, observe)
		if !rr.OK || sys == nil {
			t.Errorf("%s: expect %s, got %s; %s %s", path, rr.Expect, rr.Got, rr.Result.Panic, rr.TraceDiff)
		}
	}
}
