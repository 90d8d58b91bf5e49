package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc/internal/frame"
	"dvmc/internal/fuzz"
	"dvmc/internal/hash"
)

func sampleEntries() []CheckpointEntry {
	spec := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 7, Runs: 10}, ShardSize: 4}
	return []CheckpointEntry{
		{Spec: &spec},
		{Result: &ShardResult{Shard: Shard{ID: 0, From: 0, To: 4}}},
		{Result: &ShardResult{Shard: Shard{ID: 1, From: 4, To: 8}}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleEntries()
	for _, e := range in {
		if err := AppendEntry(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	out, dropped, err := ReadCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("clean file reported %d dropped tail bytes", dropped)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	if out[0].Spec == nil || out[0].Spec.Fuzz.Seed != 7 {
		t.Fatalf("spec entry = %+v", out[0])
	}
	if out[2].Result == nil || out[2].Result.Shard.ID != 1 {
		t.Fatalf("result entry = %+v", out[2])
	}
}

func TestCheckpointRefusesCorruption(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range sampleEntries() {
		if err := AppendEntry(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	clean := buf.String()
	lines := strings.SplitAfter(clean, "\n") // keeps the newlines

	flip := func(s string, i int) string {
		b := []byte(s)
		b[i] ^= 0x01
		return string(b)
	}
	cases := map[string]string{
		// A flipped payload byte in a middle line: CRC mismatch.
		"payload bit flip": lines[0] + flip(lines[1], len(lines[1])/2) + lines[2],
		// A record truncated in the middle but still newline-terminated:
		// a short line must never pass as a valid shorter record.
		"mid-record truncation": lines[0] + lines[1][:len(lines[1])/2] + "\n" + lines[2],
		// A line without the magic frame.
		"foreign line": lines[0] + "not a checkpoint line\n" + lines[2],
		// A bad CRC field.
		"mangled crc": lines[0] + strings.Replace(lines[1], checkpointMagic+" ", checkpointMagic+" zz", 1),
	}
	for name, data := range cases {
		if _, _, err := ReadCheckpoint([]byte(data)); err == nil {
			t.Errorf("%s: corrupt checkpoint decoded without error", name)
		}
	}
}

func TestCheckpointRecoversTornTail(t *testing.T) {
	var buf bytes.Buffer
	in := sampleEntries()
	for _, e := range in {
		if err := AppendEntry(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: start a fourth record but lose the
	// tail before the newline lands.
	var extra bytes.Buffer
	if err := AppendEntry(&extra, CheckpointEntry{Result: &ShardResult{Shard: Shard{ID: 2, From: 8, To: 10}}}); err != nil {
		t.Fatal(err)
	}
	torn := append(buf.Bytes(), extra.Bytes()[:extra.Len()/2]...)

	out, dropped, err := ReadCheckpoint(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("recovered %d entries, want %d (torn tail dropped)", len(out), len(in))
	}
	if dropped != extra.Len()/2 {
		t.Fatalf("dropped = %d bytes, want %d", dropped, extra.Len()/2)
	}
}

func TestCheckpointEntryShape(t *testing.T) {
	// Exactly one of spec/result per entry.
	spec := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 1, Runs: 1}}
	var both bytes.Buffer
	if err := AppendEntry(&both, CheckpointEntry{Spec: &spec, Result: &ShardResult{}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(both.Bytes()); err == nil {
		t.Error("entry with both spec and result must be refused")
	}
	var neither bytes.Buffer
	if err := AppendEntry(&neither, CheckpointEntry{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(neither.Bytes()); err == nil {
		t.Error("entry with neither spec nor result must be refused")
	}
}

func TestCheckpointEmpty(t *testing.T) {
	out, dropped, err := ReadCheckpoint(nil)
	if err != nil || len(out) != 0 || dropped != 0 {
		t.Fatalf("empty checkpoint = (%v, %d, %v)", out, dropped, err)
	}
}

// journalLine frames payload as one journal line under magic, with a
// valid CRC.
func journalLine(magic, payload string) string {
	return fmt.Sprintf("%s %04x %s\n", magic, uint16(hash.Sum([]byte(payload))), payload)
}

// legacyJournal is a version 1 journal with valid CRCs: the spec, then
// one result whose record carries its whole case.
func legacyJournal() []byte {
	return []byte(journalLine("DVMC1", `{"spec":{"kind":"fuzz","fuzz":{"seed":5,"runs":4,"workers":0,"fault_frac":0,"budget":2000,"minimize":false},"shard_size":2}}`) +
		journalLine("DVMC1", `{"result":{"shard":{"id":0,"from":0,"to":2},"records":[{"index":0,"case":{"name":"run-000000","model":"TSO"},"result":{"class":"agree-clean","cycles":900,"finished":true}}]}}`))
}

// rowsJournal is a DVMC2 experiment journal as written before shard
// results carried one injection list: its result splits the shard into
// per-row partials under "rows".
func rowsJournal() []byte {
	return []byte(journalLine(checkpointMagic, `{"spec":{"kind":"experiment","experiment":{"faults":2,"budget":1000,"seed":3},"shard_size":3}}`) +
		journalLine(checkpointMagic, `{"result":{"shard":{"id":0,"from":0,"to":3},"rows":[{"row":0,"from":0,"results":[{"Injection":{"Kind":3,"Node":1,"Cycle":4000,"Window":0,"Magnitude":0},"Applied":true,"ActivatedAt":4000,"Detected":true,"DetectionKind":2,"Latency":12,"Recoverable":true,"Masked":false}]}]}}`))
}

// TestCheckpointRefusesExperimentRows: strict decoding refuses a rows
// journal at its first result line, both in the reader and at resume,
// while a fuzz journal of the same version still resumes.
func TestCheckpointRefusesExperimentRows(t *testing.T) {
	data := rowsJournal()
	specLine := bytes.IndexByte(data, '\n') + 1
	path := filepath.Join(t.TempDir(), "rows.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeCoordinator(path, CoordinatorOptions{})
	var pe *frame.PosError
	if !errors.As(err, &pe) || pe.Record != 1 || pe.Offset != int64(specLine) || !strings.Contains(err.Error(), `unknown field "rows"`) {
		t.Fatalf("resuming a rows journal = %v, want a record 1, offset %d refusal naming the field", err, specLine)
	}

	spec := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 4, Budget: 2000}, ShardSize: 2}
	var journal bytes.Buffer
	if err := AppendEntry(&journal, CheckpointEntry{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteShard(spec, spec.Shards()[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendEntry(&journal, CheckpointEntry{Result: &res}); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "fuzz.ckpt")
	if err := os.WriteFile(path, journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ResumeCoordinator(path, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("resuming a fuzz journal: %v", err)
	}
	defer c.Close()
	if st := c.Status(); st.Done != 1 || st.Pending != 1 {
		t.Fatalf("resumed fuzz journal: %+v, want 1 shard done and 1 pending", st)
	}
}

// TestCheckpointRefusesVersion1: a journal written before results became
// verdicts is refused at its first line, naming the version, both by the
// reader and by resume.
func TestCheckpointRefusesVersion1(t *testing.T) {
	data := legacyJournal()
	if _, _, err := ReadCheckpoint(data); err == nil || !strings.Contains(err.Error(), "DVMC1") {
		t.Fatalf("reading a DVMC1 journal: %v", err)
	}
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeCoordinator(path, CoordinatorOptions{})
	var pe *frame.PosError
	if !errors.As(err, &pe) || pe.Record != 0 || pe.Offset != 0 || !strings.Contains(err.Error(), "journal version DVMC1") {
		t.Fatalf("resuming a DVMC1 journal = %v, want a record 0, offset 0 refusal naming the version", err)
	}
}

// TestCheckpointResultLineIsSmall: a journaled fuzz result holds verdicts,
// not cases, so an 8-case shard with no failures stays under 2 KB.
func TestCheckpointResultLineIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a shard in -short mode")
	}
	spec := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 1, Runs: 8, FaultFrac: 0.5}}
	sh := spec.Shards()[0]
	res, err := ExecuteShard(spec, sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("shard %+v delivered %d records", sh, len(res.Records))
	}
	for _, r := range res.Records {
		if r.Result.Class.Failure() {
			t.Fatalf("case %d is a %s: the fixture wants a shard with no failures", r.Index, r.Result.Class)
		}
	}
	var line bytes.Buffer
	if err := AppendEntry(&line, CheckpointEntry{Result: &res}); err != nil {
		t.Fatal(err)
	}
	t.Logf("journal line for shard %+v: %d bytes", sh, line.Len())
	if line.Len() >= 2048 {
		t.Fatalf("journal line for an 8-case shard is %d bytes, want < 2048", line.Len())
	}
	if bytes.Contains(line.Bytes(), []byte(`"case"`)) {
		t.Fatal("journal line carries a case")
	}
}
