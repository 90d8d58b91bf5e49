package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc/internal/fabric"
	"dvmc/internal/fuzz"
	"dvmc/internal/hash"
)

func runFarm(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes pins the tool's contract on the paths that end before a
// coordinator binds: 0 for help, 1 for a usage error, 2 for a checkpoint
// that does not decode or holds a result the job would refuse. Every
// serve and resume names port 0, so a case that did reach the listener
// would not collide with anything.
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
	hugeFaults := file("huge-faults.ckpt", []byte(frame("DVMC2", `{"spec":{"kind":"experiment","experiment":{"faults":137438953472,"budget":1000,"seed":3}}}`)))

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
	} {
		code, _, stderr := runFarm(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, want %d with stderr %q; got\n%s", tc.name, code, tc.code, tc.stderr, stderr)
		}
	}
}
