package fuzz

import (
	"fmt"
	"os"

	"dvmc"
	"dvmc/internal/telemetry"
)

// The campaign itself runs unobserved — recording cost never skews
// classification timing — and -spans-out / -metrics-out re-execute one
// exemplar case with the observer on: the re-run reproduces the same
// deterministic execution.

// exemplar picks the case a campaign's observer dumps show: the first
// failing run if any, else the first run. Selection orders by class
// exactly as the summary table does, so the dump is a pure function of
// the campaign seed regardless of worker count.
func exemplar(records []Record) (Record, error) {
	if len(records) == 0 {
		return Record{}, fmt.Errorf("fuzz: no records")
	}
	if first := SortRecordsByClass(records)[0]; first.Result.Class.Failure() {
		return first, nil
	}
	return records[0], nil
}

// WriteSpans re-executes the campaign's exemplar case with span
// recording enabled and writes its binary span dump to path (render
// with dvmc-stat timeline). Returns the record whose case was recorded.
func WriteSpans(records []Record, path string) (Record, error) {
	rec, err := exemplar(records)
	if err != nil {
		return rec, err
	}
	dump, err := CaseSpans(rec.Case)
	if err != nil {
		return rec, err
	}
	return rec, os.WriteFile(path, dump, 0o644)
}

// WriteTelemetry re-executes the campaign's exemplar case with telemetry
// enabled and writes its snapshot to path ('-' for stdout). Returns the
// record whose case was sampled.
func WriteTelemetry(records []Record, path string) (Record, error) {
	rec, err := exemplar(records)
	if err != nil {
		return rec, err
	}
	cfg, err := rec.Case.Config()
	if err != nil {
		return rec, err
	}
	sys, _, err := execute(rec.Case, cfg.WithTelemetry(dvmc.TelemetryOn()))
	if err != nil {
		return rec, err
	}
	return rec, telemetry.WriteSnapshotFile(sys.TelemetrySnapshot(), path)
}

// CaseSpans re-runs one case with span recording enabled and returns
// its deterministic binary span dump — the timeline evidence for a
// corpus reproducer's verdict.
func CaseSpans(c *Case) ([]byte, error) {
	cfg, err := c.Config()
	if err != nil {
		return nil, err
	}
	sys, _, err := execute(c, cfg.WithSpans(dvmc.SpansOn()))
	if err != nil {
		return nil, err
	}
	return sys.SpanBytes()
}
