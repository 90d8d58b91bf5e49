package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc"
	"dvmc/internal/fabric"
	"dvmc/internal/fuzz"
	"dvmc/internal/hash"
	"dvmc/internal/strictjson"
	"dvmc/internal/telemetry"
)

func runFarm(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes pins the tool's contract: 0 for help and a finished
// experiment its verdict passes, 1 for a usage error, 2 for a checkpoint
// that does not decode or holds a result the job would refuse, and for
// an experiment the Section 6.1 verdict fails. Every serve and resume
// names port 0, so a case that did reach the listener would not collide
// with anything; a finished journal resumes with no worker to wait for.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// A two-shard journal: the spec and both results.
	spec := fabric.JobSpec{Kind: fabric.JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 4, Budget: 2000}, ShardSize: 2}
	var journal bytes.Buffer
	if err := fabric.AppendEntry(&journal, fabric.CheckpointEntry{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for _, sh := range spec.Shards() {
		res, err := fabric.ExecuteShard(spec, sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := fabric.AppendEntry(&journal, fabric.CheckpointEntry{Result: &res}); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.SplitAfter(journal.String(), "\n")
	// Torn mid-file: the first result cut short but newline-terminated,
	// with a whole record after it. Only an unterminated tail is a crash.
	torn := file("torn.ckpt", []byte(lines[0]+lines[1][:len(lines[1])/2]+"\n"+lines[2]))
	flipped := []byte(journal.String())
	flipped[len(lines[0])+len(lines[1])/2] ^= 0x01
	crc := file("crc.ckpt", flipped)
	frame := func(magic, payload string) string {
		return fmt.Sprintf("%s %04x %s\n", magic, uint16(hash.Sum([]byte(payload))), payload)
	}
	payload := `{"spec":{"kind":"fuzz","fuzz":{"seed":5,"runs":4,"workers":0,"fault_frac":0,"budget":2000,"minimize":false},"shard_size":2}}`
	v1 := file("v1.ckpt", []byte(frame("DVMC1", payload)))
	// A result whose CRC holds but that covers only case 0 of its shard.
	short := file("short.ckpt", []byte(lines[0]+frame("DVMC2", `{"result":{"shard":{"id":0,"from":0,"to":2},"records":[{"index":0,"result":{"class":"agree-clean"}}]}}`)))
	// An experiment journal from before results were one injection list.
	rows := file("rows.ckpt", []byte(frame("DVMC2", `{"spec":{"kind":"experiment","experiment":{"faults":2,"budget":1000,"seed":3},"shard_size":3}}`)+
		frame("DVMC2", `{"result":{"shard":{"id":0,"from":0,"to":3},"rows":[{"row":0,"from":0,"results":[]}]}}`)))
	// Specs whose case space would size the shard partition or the
	// injection list near 2^40 entries.
	hugeRuns := file("huge-runs.ckpt", []byte(frame("DVMC2", `{"spec":{"kind":"fuzz","fuzz":{"seed":5,"runs":1099511627776,"budget":2000}}}`)))
	// A journal from when a campaign could breed generations.
	gens := file("gens.ckpt", []byte(frame("DVMC2", `{"spec":{"kind":"fuzz","fuzz":{"seed":5,"runs":4,"generations":2,"workers":0,"fault_frac":0,"budget":2000,"minimize":false},"shard_size":2}}`)))
	// Finished experiment journals whose results the coordinator accepts
	// (each reports its derived injection): one all recoverable, one
	// with a detection no live checkpoint could roll back.
	experiment := func(name string, recoverable ...bool) string {
		spec := fabric.JobSpec{Kind: fabric.JobExperiment, Experiment: &fabric.ExperimentSpec{Faults: 1, Budget: 1000, Seed: 3}, ShardSize: 8}
		res := fabric.ShardResult{Shard: spec.Shards()[0]}
		for i, inj := range dvmc.ErrorDetection(1, 1000, 3).Injections() {
			res.Injections = append(res.Injections, dvmc.InjectionResult{Injection: inj, Applied: true, Detected: true, Recoverable: recoverable[i]})
		}
		var journal bytes.Buffer
		for _, e := range []fabric.CheckpointEntry{{Spec: &spec}, {Result: &res}} {
			if err := fabric.AppendEntry(&journal, e); err != nil {
				t.Fatal(err)
			}
		}
		return file(name, journal.Bytes())
	}
	recovered := experiment("recovered.ckpt", true, true, true, true, true, true, true, true)
	unrecoverable := experiment("unrecoverable.ckpt", true, true, true, false, true, true, true, true)
	hugeFaults := file("huge-faults.ckpt", []byte(frame("DVMC2", `{"spec":{"kind":"experiment","experiment":{"faults":137438953472,"budget":1000,"seed":3}}}`)))
	// A coordinator whose status reply carries a second value.
	twoStatuses := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"kind":"fuzz"}{"kind":"fuzz"}`)
	}))
	defer twoStatuses.Close()

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "usage:"},
		{"serve help", []string{"serve", "-h"}, 0, "-checkpoint"},
		{"no subcommand", nil, 1, "usage:"},
		{"unknown subcommand", []string{"farm"}, 1, "unknown subcommand"},
		{"unknown flag", []string{"work", "-bogus"}, 1, "flag provided but not defined"},
		{"unknown job", []string{"serve", "-addr", "127.0.0.1:0", "-job", "coverage"}, 1, `unknown -job "coverage"`},
		{"removed serve -spans-out", []string{"serve", "-addr", "127.0.0.1:0", "-spans-out", filepath.Join(dir, "s.spans")}, 1, "flag provided but not defined: -spans-out"},
		{"two stdout artifacts", []string{"serve", "-addr", "127.0.0.1:0", "-json", "-metrics-out", "-", "-metrics"}, 1, "only one of -json, -records-out and -metrics-out can be '-' (stdout)"},
		{"status reply with trailing bytes", []string{"status", "-coordinator", twoStatuses.URL}, 1, "trailing data"},
		{"-metrics-out on an experiment job", []string{"serve", "-addr", "127.0.0.1:0", "-job", "experiment", "-metrics-out", filepath.Join(dir, "m.json")}, 1, "-metrics-out needs a fuzz job"},
		{"resume without a checkpoint", []string{"resume", "-addr", "127.0.0.1:0"}, 1, "-checkpoint is required"},
		{"missing checkpoint", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", filepath.Join(dir, "absent.ckpt")}, 1, "no such file"},
		{"torn mid-file", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", torn}, 2, "record 1, offset"},
		{"crc mismatch", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", crc}, 2, "crc mismatch"},
		{"DVMC1 journal", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", v1}, 2, "journal version DVMC1"},
		{"a short result", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", short}, 2, fmt.Sprintf("record 1, offset %d", len(lines[0]))},
		{"experiment rows", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", rows}, 2, `unknown field "rows"`},
		{"breeding generations", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", gens}, 2, `unknown field "generations"`},
		{"fuzz runs near 2^40", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", hugeRuns}, 2, "record 0, offset 0: fabric: fuzz Runs = 1099511627776, need <= 1048576 cases"},
		{"experiment faults near 2^40", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", hugeFaults}, 2, "record 0, offset 0: fabric: experiment Faults = 137438953472, need <= 1048576 cases"},
		{"experiment all recovered", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", recovered}, 0, "(1 already done)"},
		{"experiment with an unrecoverable detection", []string{"resume", "-addr", "127.0.0.1:0", "-checkpoint", unrecoverable}, 2, "dvmc-farm: Section 6.1: 0 undetected and 1 unrecoverable faults"},
	} {
		code, _, stderr := runFarm(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, want %d with stderr %q; got\n%s", tc.name, code, tc.code, tc.stderr, stderr)
		}
	}
}

// TestMetricsToStdout: `-metrics-out -` makes the merged snapshot all of
// stdout, decodable from byte 0, and moves the summary to stderr. A
// journal that already holds every shard's result resumes straight to
// its artifacts, so no worker is needed.
func TestMetricsToStdout(t *testing.T) {
	spec := fabric.JobSpec{Kind: fabric.JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 4, Budget: 2000, Metrics: true}, ShardSize: 2}
	var journal bytes.Buffer
	if err := fabric.AppendEntry(&journal, fabric.CheckpointEntry{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for _, sh := range spec.Shards() {
		res, err := fabric.ExecuteShard(spec, sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := fabric.AppendEntry(&journal, fabric.CheckpointEntry{Result: &res}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "done.ckpt")
	if err := os.WriteFile(path, journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runFarm("resume", "-addr", "127.0.0.1:0", "-checkpoint", path, "-metrics-out", "-")
	if code != 0 || !strings.Contains(stderr, "campaign seed=5 runs=4") {
		t.Fatalf("resume -metrics-out -: exit %d, stderr lacks the summary:\n%s", code, stderr)
	}
	snap, err := telemetry.DecodeSnapshot(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("stdout is not a snapshot from byte 0 (%v):\n%.200s", err, stdout)
	}
	if len(snap.Metrics) == 0 {
		t.Error("the merged snapshot holds no metrics")
	}
}

// TestJSONOutputsMatchSerial runs a finished fuzz job through resume twice,
// with -json and with -records-out -, and holds both to the serial
// campaign of the same seed, count and kinds: the summary is byte for byte
// what dvmc-fuzz run -json prints (its encoder: two-space indent), and the
// record table decodes strictly and re-encodes to the serial records.
func TestJSONOutputsMatchSerial(t *testing.T) {
	cfg := fuzz.CampaignConfig{Seed: 42, Runs: 6, FaultFrac: 0.5, Budget: fuzz.DefaultBudget,
		Minimize: true, MinimizeBudget: fuzz.DefaultMinimizeBudget, Kinds: []string{"msg-duplicate", "wb-drop"}}
	spec := fabric.JobSpec{Kind: fabric.JobFuzz, Fuzz: &cfg, ShardSize: 4}
	var journal bytes.Buffer
	if err := fabric.AppendEntry(&journal, fabric.CheckpointEntry{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for _, sh := range spec.Shards() {
		res, err := fabric.ExecuteShard(spec, sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := fabric.AppendEntry(&journal, fabric.CheckpointEntry{Result: &res}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "done.ckpt")
	if err := os.WriteFile(path, journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	serial := cfg
	serial.Workers = 1
	records, summary, _, err := fuzz.Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	indented := func(v any) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	code, stdout, stderr := runFarm("resume", "-addr", "127.0.0.1:0", "-checkpoint", path, "-json")
	if code != 0 {
		t.Fatalf("resume -json: exit %d\n%s", code, stderr)
	}
	if want := indented(summary); stdout != want {
		t.Errorf("resume -json prints\n%s\nthe serial campaign's summary is\n%s", stdout, want)
	}

	code, stdout, stderr = runFarm("resume", "-addr", "127.0.0.1:0", "-checkpoint", path, "-records-out", "-")
	if code != 0 || !strings.Contains(stderr, "campaign seed=42 runs=6") {
		t.Fatalf("resume -records-out -: exit %d, stderr lacks the summary:\n%s", code, stderr)
	}
	var got []fuzz.Record
	if err := strictjson.Decode(strings.NewReader(stdout), &got); err != nil {
		t.Fatalf("the record table does not decode strictly: %v\n%.200s", err, stdout)
	}
	if len(got) != cfg.Runs {
		t.Fatalf("%d records, want %d", len(got), cfg.Runs)
	}
	if want := indented(records); stdout != want || indented(got) != want {
		t.Error("the record table differs from the serial campaign's records")
	}
}

// TestWorkAndStatus drives work and status against an in-process
// coordinator: status as text and -json while the job runs and once it
// has finished, a worker that stops after one shard, one that drains the
// rest, and a worker whose coordinator does not answer, which exits 1
// once its register retries (about 3 s) run out.
func TestWorkAndStatus(t *testing.T) {
	spec := fabric.JobSpec{Kind: fabric.JobFuzz, Fuzz: &fuzz.CampaignConfig{Seed: 5, Runs: 4, Budget: 2000}, ShardSize: 2}
	coord, err := fabric.NewCoordinator(spec, fabric.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord)
	defer srv.Close()

	status := func(wantText string, wantFinished bool, wantDone int) {
		t.Helper()
		code, stdout, stderr := runFarm("status", "-coordinator", srv.URL)
		if code != 0 || !strings.Contains(stdout, wantText) || strings.Contains(stdout, "[finished]") != wantFinished {
			t.Errorf("status: exit %d, want 0 with %q (finished %v); got\n%s%s", code, wantText, wantFinished, stdout, stderr)
		}
		code, stdout, stderr = runFarm("status", "-coordinator", srv.URL, "-json")
		var st fabric.StatusResponse
		if code != 0 {
			t.Fatalf("status -json: exit %d\n%s", code, stderr)
		}
		if err := strictjson.Decode(strings.NewReader(stdout), &st); err != nil {
			t.Fatalf("status -json does not decode strictly: %v\n%s", err, stdout)
		}
		if st.Kind != fabric.JobFuzz || st.Total != 2 || st.Cases != 4 || st.Done != wantDone || st.Finished != wantFinished {
			t.Errorf("status -json = %+v, want 2 fuzz shards of 4 cases, %d done, finished %v", st, wantDone, wantFinished)
		}
	}

	status("fuzz job: 4 cases, shards 0 done / 0 active / 2 pending of 2", false, 0)
	code, _, stderr := runFarm("work", "-coordinator", srv.URL, "-name", "w1", "-max-shards", "1")
	if code != 0 || !strings.Contains(stderr, "dvmc-farm[w1]: registered with "+srv.URL) {
		t.Fatalf("work -max-shards 1: exit %d\n%s", code, stderr)
	}
	status("shards 1 done / 0 active / 1 pending of 2", false, 1)
	if _, stdout, _ := runFarm("status", "-coordinator", srv.URL); !strings.Contains(stdout, "worker w1") || !strings.Contains(stdout, "1 shards") {
		t.Errorf("status does not list worker w1 with its shard:\n%s", stdout)
	}
	if code, _, stderr := runFarm("work", "-coordinator", srv.URL, "-name", "w2", "-q"); code != 0 || stderr != "" {
		t.Fatalf("work -q: exit %d, stderr %q", code, stderr)
	}
	status("shards 2 done / 0 active / 0 pending of 2", true, 2)

	if testing.Short() {
		return
	}
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	if code, _, stderr := runFarm("work", "-coordinator", gone.URL, "-name", "w3", "-q"); code != 1 || !strings.Contains(stderr, "register with "+gone.URL) {
		t.Errorf("work against a closed coordinator: exit %d, want 1 naming the register; stderr:\n%s", code, stderr)
	}
}
