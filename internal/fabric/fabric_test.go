package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"dvmc"
	"dvmc/internal/fuzz"
	"dvmc/internal/telemetry"
)

// testTTL is the lease lifetime the e2e tests hand the coordinator:
// 60s by default, so leases never expire mid-test, overridable through
// DVMC_FABRIC_TEST_TTL so CI's -race pass can shorten it and exercise
// lease expiry and work-stealing under the race detector.
func testTTL() uint64 {
	if v, err := strconv.ParseUint(os.Getenv("DVMC_FABRIC_TEST_TTL"), 10, 64); err == nil && v > 0 {
		return v
	}
	return 60
}

// --- protocol ---

func TestProtocolRoundTrips(t *testing.T) {
	roundTrip := func(in, out any) {
		t.Helper()
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatal(err)
		}
		// out is a pointer; compare against the original value.
		if !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), in) {
			t.Fatalf("round trip lost data:\n in: %+v\nout: %+v", in, reflect.ValueOf(out).Elem().Interface())
		}
	}
	spec := JobSpec{
		Kind:      JobFuzz,
		Fuzz:      &fuzz.CampaignConfig{Seed: 3, Runs: 9, FaultFrac: 0.25, Budget: 1000, Minimize: true, MinimizeBudget: 5, Metrics: true},
		ShardSize: 2,
	}
	roundTrip(RegisterRequest{Worker: "w1"}, &RegisterRequest{})
	roundTrip(RegisterResponse{Spec: spec, TTLSeconds: 30}, &RegisterResponse{})
	roundTrip(LeaseRequest{Worker: "w1"}, &LeaseRequest{})
	roundTrip(LeaseResponse{Shard: &Shard{ID: 2, From: 4, To: 6}}, &LeaseResponse{})
	roundTrip(LeaseResponse{Done: true}, &LeaseResponse{})
	roundTrip(RenewRequest{Worker: "w1", Shard: 2}, &RenewRequest{})
	roundTrip(RenewResponse{OK: true}, &RenewResponse{})
	roundTrip(CompleteResponse{Accepted: true, Done: true}, &CompleteResponse{})
	roundTrip(StatusResponse{Kind: JobFuzz, Total: 3, Done: 1, Cases: 9,
		Workers: []WorkerStatus{{Name: "w1", Shards: 1, LastSeenSeconds: 2}}}, &StatusResponse{})

	// A shard result with real records survives the wire byte-for-byte.
	cfg := *spec.Fuzz
	recs, snap, err := fuzz.RunRange(cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	in := CompleteRequest{Worker: "w1", Result: ShardResult{
		Shard: Shard{ID: 0, From: 0, To: 2}, Records: recs, Snapshot: buf.Bytes(),
	}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out CompleteRequest
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	inJSON, _ := json.Marshal(in.Result.Records)
	outJSON, _ := json.Marshal(out.Result.Records)
	if !bytes.Equal(inJSON, outJSON) {
		t.Fatal("records changed across the wire")
	}
	// The wire may re-compact embedded JSON; the decoded snapshot must
	// canonically re-encode to the same bytes.
	reSnap, err := telemetry.DecodeSnapshot(bytes.NewReader(out.Result.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	var reBuf bytes.Buffer
	if err := reSnap.EncodeJSON(&reBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reBuf.Bytes(), buf.Bytes()) {
		t.Fatal("snapshot content changed across the wire")
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := JobSpec{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 1, Runs: 4}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []JobSpec{
		{},
		{Kind: JobFuzz},
		{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Runs: 0}},
		{Kind: "coverage", Fuzz: &fuzz.CampaignConfig{Seed: 1, Runs: 6}},
		{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 1, Runs: 4, FaultFrac: 2}},
		{Kind: JobExperiment},
		{Kind: JobExperiment, Experiment: &ExperimentSpec{Faults: 0, Budget: 1}},
		{Kind: JobExperiment, Experiment: &ExperimentSpec{Faults: 1, Budget: 0}},
		{Kind: "bogus"},
		{Kind: JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 1, Runs: 4}, ShardSize: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
}

// --- end-to-end determinism ---

// farmSpec is the shared fixture: small enough to run in seconds, large
// enough to exercise failures (minimization + corpus), metrics, and
// multiple shards. Seed 2099 is the first seed from 2024 up whose twelve
// cases hold a failure (case 7, an msg-data-flip escape), so a minimized
// reproducer crosses the wire.
func farmSpec(corpusDir string) JobSpec {
	return JobSpec{
		Kind: JobFuzz,
		Fuzz: &fuzz.CampaignConfig{
			Seed: 2099, Runs: 12, FaultFrac: 0.5,
			Minimize: true, MinimizeBudget: 200, Metrics: true,
			CorpusDir: corpusDir,
		},
		ShardSize: 5,
	}
}

// serialBaseline runs the same campaign in one process with the local
// driver, producing the reference bytes the farm must reproduce.
func serialBaseline(t *testing.T, spec JobSpec) ([]byte, fuzz.Summary, []byte, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := *spec.Fuzz
	cfg.Workers = 1
	cfg.CorpusDir = dir
	recs, sum, snap, err := fuzz.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snapJSON bytes.Buffer
	if err := snap.EncodeJSON(&snapJSON); err != nil {
		t.Fatal(err)
	}
	return recordsJSON(t, recs), sum, snapJSON.Bytes(), dir
}

// recordsJSON marshals records with CorpusFile reduced to its base name
// (the corpus directories differ between runs under comparison).
func recordsJSON(t *testing.T, recs []fuzz.Record) []byte {
	t.Helper()
	norm := append([]fuzz.Record(nil), recs...)
	for i := range norm {
		if norm[i].CorpusFile != "" {
			norm[i].CorpusFile = filepath.Base(norm[i].CorpusFile)
		}
	}
	data, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// minimizedFailures counts the failures that carry a minimized
// reproducer: the one part of a record that travels besides the verdict.
func minimizedFailures(recs []fuzz.Record) int {
	n := 0
	for _, r := range recs {
		if r.Result.Class.Failure() && r.Minimized != nil {
			n++
		}
	}
	return n
}

func assertFarmMatchesSerial(t *testing.T, out *Output, farmCorpus string,
	wantRecords []byte, wantSummary fuzz.Summary, wantSnap []byte, serialCorpus string) {
	t.Helper()
	if got := recordsJSON(t, out.Records); !bytes.Equal(got, wantRecords) {
		t.Error("farm records differ from serial run")
	}
	if !reflect.DeepEqual(out.Summary, wantSummary) {
		t.Errorf("farm summary = %+v, want %+v", out.Summary, wantSummary)
	}
	var snapJSON bytes.Buffer
	if err := out.Snapshot.EncodeJSON(&snapJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapJSON.Bytes(), wantSnap) {
		t.Error("farm merged telemetry differs from serial run")
	}
	if !reflect.DeepEqual(corpusTree(t, farmCorpus), corpusTree(t, serialCorpus)) {
		t.Error("farm corpus artifacts differ from serial run")
	}
}

// TestFarmMatchesSerial is the fabric's headline property: a
// coordinator with concurrent workers over loopback HTTP produces
// byte-identical records, summary, corpus, and merged telemetry to the
// serial single-process driver.
func TestFarmMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("farm test in -short mode")
	}
	farmCorpus := t.TempDir()
	spec := farmSpec(farmCorpus)
	wantRecords, wantSummary, wantSnap, serialCorpus := serialBaseline(t, spec)

	coord, err := NewCoordinator(spec, CoordinatorOptions{TTLSeconds: testTTL()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		go func(name string) {
			_, err := RunWorker(ctx, WorkerOptions{Name: name, Coordinator: srv.URL})
			errs <- err
		}(name)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("workers returned but the job is not done")
	}
	st := coord.Status()
	if !st.Finished || st.Done != st.Total {
		t.Fatalf("status after completion: %+v", st)
	}

	out, err := coord.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if minimizedFailures(out.Records) == 0 {
		t.Fatal("the campaign has no failure with a minimized reproducer to carry")
	}
	assertFarmMatchesSerial(t, out, farmCorpus, wantRecords, wantSummary, wantSnap, serialCorpus)
}

// TestFarmCrashResumeMatchesSerial kills a worker mid-job, crashes the
// coordinator, resumes from the checkpoint, and still reproduces the
// serial bytes — the acceptance scenario for the checkpoint journal.
func TestFarmCrashResumeMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("farm test in -short mode")
	}
	farmCorpus := t.TempDir()
	spec := farmSpec(farmCorpus)
	wantRecords, wantSummary, wantSnap, serialCorpus := serialBaseline(t, spec)

	ckpt := filepath.Join(t.TempDir(), "farm.ckpt")
	coord, err := NewCoordinator(spec, CoordinatorOptions{CheckpointPath: ckpt, TTLSeconds: testTTL()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Worker 1 completes exactly one shard, then leaves.
	if n, err := RunWorker(ctx, WorkerOptions{Name: "w1", Coordinator: srv.URL, MaxShards: 1}); err != nil || n != 1 {
		t.Fatalf("worker 1: completed %d shards, err %v", n, err)
	}
	// Worker 2 "crashes": it acquires a lease and never completes it.
	var reg RegisterResponse
	if err := postJSON(ctx, srv.Client(), srv.URL+PathRegister, RegisterRequest{Worker: "w2"}, &reg, MaxControlBody); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	if err := postJSON(ctx, srv.Client(), srv.URL+PathLease, LeaseRequest{Worker: "w2"}, &lease, MaxControlBody); err != nil {
		t.Fatal(err)
	}
	if lease.Shard == nil {
		t.Fatal("crashing worker got no lease to abandon")
	}

	// Coordinator crash: server down, handle closed. Simulate a torn
	// final append — the resume path must truncate it away.
	srv.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(checkpointMagic + " 0f0f {\"result\":{\"shard\""); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume. The completed shard must be journaled; the abandoned lease
	// must be pending again (leases are not durable, results are).
	coord2, err := ResumeCoordinator(ckpt, CoordinatorOptions{TTLSeconds: testTTL()})
	if err != nil {
		t.Fatal(err)
	}
	st := coord2.Status()
	if st.Done != 1 || st.Pending != st.Total-1 {
		t.Fatalf("resumed status = %+v, want 1 done and the rest pending", st)
	}
	srv2 := httptest.NewServer(coord2)
	defer srv2.Close()

	// A fresh worker drains the remainder.
	if _, err := RunWorker(ctx, WorkerOptions{Name: "w3", Coordinator: srv2.URL}); err != nil {
		t.Fatal(err)
	}
	out, err := coord2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if minimizedFailures(out.Records) == 0 {
		t.Fatal("the campaign has no failure with a minimized reproducer to carry")
	}
	assertFarmMatchesSerial(t, out, farmCorpus, wantRecords, wantSummary, wantSnap, serialCorpus)

	// And a second resume of the finished job (coordinator restarted
	// after completion) finalizes identically with no workers at all.
	if err := coord2.Close(); err != nil {
		t.Fatal(err)
	}
	coord3, err := ResumeCoordinator(ckpt, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord3.Close()
	select {
	case <-coord3.Done():
	default:
		t.Fatal("fully-journaled job must resume as done")
	}
	out3, err := coord3.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := recordsJSON(t, out3.Records); !bytes.Equal(got, wantRecords) {
		t.Error("post-restart finalize records differ from serial run")
	}
	if !reflect.DeepEqual(out3.Summary, wantSummary) {
		t.Error("post-restart finalize summary differs")
	}
}

// TestFarmExperimentMatchesSerial shards the Section 6.1 matrix with
// shard boundaries that cross rows and checks the assembled table's
// bytes against dvmc.ErrorDetectionTable run on one worker.
func TestFarmExperimentMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("farm test in -short mode")
	}
	const faults, budget, seed = 2, 150_000, 11
	want, err := dvmc.ErrorDetectionTable(faults, budget, seed, 1)
	if err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{
		Kind:       JobExperiment,
		Experiment: &ExperimentSpec{Faults: faults, Budget: budget, Seed: seed},
		ShardSize:  3, // 16 cases, shards straddle the 2-fault rows
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{TTLSeconds: testTTL()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		go func(name string) {
			_, err := RunWorker(ctx, WorkerOptions{Name: name, Coordinator: srv.URL})
			errs <- err
		}(name)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	out, err := coord.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.String() != want.String() {
		t.Errorf("farm table differs from serial:\n%s\nvs\n%s", out.Table, want)
	}
	if len(out.Injections) != spec.TotalCases() {
		t.Fatalf("%d injection results for %d cases", len(out.Injections), spec.TotalCases())
	}
}

// TestResumeOutOfOrderJournalMatchesSerial: cases are re-derived by
// index, not in the order results were accepted. The journal holds the
// last shard before the middle one, which carries the campaign's failure
// and its minimized reproducer; resumed, the coordinator leases the
// first shard and finalizes to the serial bytes.
func TestResumeOutOfOrderJournalMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("farm test in -short mode")
	}
	farmCorpus := t.TempDir()
	spec := farmSpec(farmCorpus)
	wantRecords, wantSummary, wantSnap, serialCorpus := serialBaseline(t, spec)

	shards := spec.Shards()
	var journal bytes.Buffer
	if err := AppendEntry(&journal, CheckpointEntry{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{2, 1} {
		res, err := ExecuteShard(spec, shards[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := AppendEntry(&journal, CheckpointEntry{Result: &res}); err != nil {
			t.Fatal(err)
		}
	}
	if n := bytes.Count(journal.Bytes(), []byte(`"minimized"`)); n == 0 {
		t.Fatal("no journaled result carries a minimized reproducer")
	}
	ckpt := filepath.Join(t.TempDir(), "farm.ckpt")
	if err := os.WriteFile(ckpt, journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	coord, err := ResumeCoordinator(ckpt, CoordinatorOptions{TTLSeconds: testTTL()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if st := coord.Status(); st.Done != 2 || st.Pending != 1 {
		t.Fatalf("resumed status = %+v, want the 2 journaled shards done and 1 pending", st)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if n, err := RunWorker(ctx, WorkerOptions{Name: "w1", Coordinator: srv.URL}); err != nil || n != 1 {
		t.Fatalf("worker completed %d shards, err %v; want shard 0 alone", n, err)
	}
	out, err := coord.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertFarmMatchesSerial(t, out, farmCorpus, wantRecords, wantSummary, wantSnap, serialCorpus)
}

// corpusTree snapshots a corpus directory recursively as relative path ->
// bytes.
func corpusTree(t *testing.T, dir string) map[string]string {
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

// TestExecuteShardDeterministic: the same shard executed twice (a
// steal/retry) yields identical bytes.
func TestExecuteShardDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("farm test in -short mode")
	}
	spec := farmSpec("")
	sh := spec.Shards()[1]
	a, err := ExecuteShard(spec, sh)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteShard(spec, sh)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatal("re-executing a shard produced different bytes")
	}
}

// TestMetricsSnapshotPartial: /metrics.json's merge over a partially
// complete job is valid and grows monotonically to the final snapshot.
func TestMetricsSnapshotPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("farm test in -short mode")
	}
	spec := farmSpec("")
	coord, err := NewCoordinator(spec, CoordinatorOptions{TTLSeconds: testTTL()})
	if err != nil {
		t.Fatal(err)
	}
	// Complete shard 0 by hand.
	sh := spec.Shards()[0]
	res, err := ExecuteShard(spec, sh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Complete(CompleteRequest{Worker: "w1", Result: res}); err != nil {
		t.Fatal(err)
	}
	snap, err := coord.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("partial metrics snapshot is empty")
	}
	// Duplicate completion of the same shard is dropped.
	ack, err := coord.Complete(CompleteRequest{Worker: "w2", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted {
		t.Fatal("duplicate shard completion was accepted")
	}
	again, err := coord.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := snap.EncodeJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := again.EncodeJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("dropped duplicate changed the metrics merge")
	}
}
