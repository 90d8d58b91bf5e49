package main

import (
	"bytes"
	"dvmc"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc/internal/fuzz"
	"dvmc/internal/strictjson"
)

func runFuzz(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes pins the tool's contract: 0 for a clean campaign (as a
// table or as JSON) or replay, a generated case and a shrunk one, 1 for
// usage errors — the removed -coverage, -gens, and run's -spans-out and
// -metrics-out flags among them, a stray argument to run, replay
// observers asked of anything but one case file, a malformed -fault
// spec, and a case shrink cannot load — and 2 for a found failure, which
// includes a failing campaign (its -v lines and corpus reproducer
// checked too), a replayed case that no longer shows its classification
// and a case file that does not decode (a whole case with bytes after it
// among them).
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	code, generated, stderr := runFuzz("gen", "-seed", "3", "-threads", "2", "-ops", "8")
	if code != 0 {
		t.Fatalf("gen: exit %d, stderr:\n%s", code, stderr)
	}
	clean := file("clean.json", []byte(generated))
	c, err := fuzz.DecodeCase([]byte(generated))
	if err != nil {
		t.Fatal(err)
	}
	c.Expect = dvmc.ClassEscape // it runs agree-clean
	wrong, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	failing := file("failing.json", wrong)
	torn := file("torn.json", []byte(generated[:len(generated)/2]))
	empty := file("empty.json", nil)
	// Outside dir, which the directory row counts.
	tail := filepath.Join(t.TempDir(), "tail.json")
	if err := os.WriteFile(tail, []byte(generated+"garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	corpusCase := filepath.Join("..", "..", "internal", "fuzz", "testdata", "corpus", "detect-wb-corrupt-tso.json")
	shrunk := filepath.Join(t.TempDir(), "shrunk.json")
	corpusDir := t.TempDir()
	// Seed 21's one escape in 24 fault runs is run 7, a msg-drop that
	// wedges the directory home: no checker fires and nothing settles.
	failingRun := func(flags ...string) []string {
		return append([]string{"run", "-seed", "21", "-n", "24", "-fault-frac", "1", "-workers", "1"}, flags...)
	}

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"clean run", []string{"run", "-seed", "42", "-n", "6", "-workers", "1"}, 0, "campaign seed=42 runs=6", ""},
		{"clean run as JSON", []string{"run", "-seed", "42", "-n", "6", "-workers", "1", "-json"}, 0, `"seed": 42`, ""},
		{"failing run, verbose", failingRun("-v"), 2, "  run 7: escape RMO/directory fault=msg-drop@5683", "1 failing runs"},
		{"failing run to a corpus", failingRun("-corpus", corpusDir, "-minimize=false"), 2, "escape       1", "1 failing runs"},
		{"stray run argument", []string{"run", "-n", "4", "extra"}, 1, "", "unexpected arguments [extra]"},
		{"clean replay", []string{"replay", clean}, 0, "replayed 1 cases, 0 mismatches", ""},
		{"failing replay", []string{"replay", failing}, 2, "MISMATCH", ""},
		{"torn case", []string{"replay", torn}, 2, "decode case: offset", ""},
		{"empty case", []string{"replay", empty}, 2, "decode case: offset 0", ""},
		{"case with trailing bytes", []string{"replay", tail}, 2, fmt.Sprintf("decode case: offset %d: trailing data", len(strings.TrimSpace(generated))), ""},
		{"a directory holding them", []string{"replay", dir}, 2, "replayed 4 cases, 3 mismatches", ""},
		{"missing case", []string{"replay", filepath.Join(dir, "absent.json")}, 1, "", "no such file"},
		{"no replay argument", []string{"replay"}, 1, "", "need at least one"},
		{"unknown -kinds", []string{"run", "-n", "4", "-kinds", "bogus"}, 1, "", `unknown fault kind "bogus"`},
		{"removed -coverage", []string{"run", "-n", "4", "-coverage"}, 1, "", "flag provided but not defined: -coverage"},
		{"removed -gens", []string{"run", "-n", "4", "-gens", "2"}, 1, "", "flag provided but not defined: -gens"},
		{"removed run -spans-out", []string{"run", "-n", "4", "-spans-out", filepath.Join(dir, "x.spans")}, 1, "", "flag provided but not defined: -spans-out"},
		{"removed run -metrics-out", []string{"run", "-n", "4", "-metrics-out", filepath.Join(dir, "x.json")}, 1, "", "flag provided but not defined: -metrics-out"},
		{"observed replay", []string{"replay", "-spans-out", filepath.Join(dir, "clean.spans"), "-metrics-out", filepath.Join(dir, "clean.metrics"), clean}, 0, "span dump written to", ""},
		{"observed replay to stdout", []string{"replay", "-spans-out", "-", clean}, 0, "DVMCSP", "replayed 1 cases, 0 mismatches"},
		{"observed failing replay", []string{"replay", "-spans-out", filepath.Join(dir, "failing.spans"), failing}, 2, "span dump written to", ""},
		{"observed replay of a directory", []string{"replay", "-spans-out", filepath.Join(dir, "d.spans"), dir}, 1, "", "need exactly one case file"},
		{"observed replay of two files", []string{"replay", "-metrics-out", filepath.Join(dir, "m.json"), clean, failing}, 1, "", "need exactly one case file"},
		{"two stdout artifacts", []string{"replay", "-spans-out", "-", "-metrics-out", "-", clean}, 1, "", "can be '-' (stdout)"},
		{"observed torn case", []string{"replay", "-spans-out", filepath.Join(dir, "torn.spans"), torn}, 2, "decode case: offset", ""},
		{"no shrink argument", []string{"shrink"}, 1, "", "need exactly one case file"},
		{"missing shrink case", []string{"shrink", filepath.Join(dir, "absent.json")}, 1, "", "no such file"},
		{"torn shrink case", []string{"shrink", torn}, 1, "", "decode case: offset"},
		{"shrink to a file", []string{"shrink", "-budget", "3", "-o", shrunk, corpusCase}, 0, "", "shrunk to"},
		{"malformed -fault", []string{"gen", "-fault", "msg-reorder:0"}, 1, "", "want kind:node:cycle[:window[:magnitude]]"},
		{"-fault with a window", []string{"gen", "-fault", "msg-reorder:0:500:200"}, 0, `"window": 200`, ""},
		{"unknown subcommand", []string{"fuzz"}, 1, "", "unknown subcommand"},
		{"no subcommand", nil, 1, "", "usage:"},
	} {
		code, stdout, stderr := runFuzz(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, want %d with stdout %q and stderr %q; got\nstdout: %s\nstderr: %s",
				tc.name, code, tc.code, tc.stdout, tc.stderr, stdout, stderr)
		}
	}

	// The JSON summary decodes, strictly, as a fuzz.Summary.
	_, stdout, _ := runFuzz("run", "-seed", "42", "-n", "6", "-workers", "1", "-json")
	var sum fuzz.Summary
	if err := strictjson.Decode(strings.NewReader(stdout), &sum); err != nil || sum.Seed != 42 || sum.Runs != 6 || sum.Failed() {
		t.Errorf("-json summary %+v (%v) from:\n%s", sum, err, stdout)
	}

	// The corpus holds run 7's reproducer, unminimized, expecting its
	// escape.
	repro, err := filepath.Glob(filepath.Join(corpusDir, "escape-*-000007.json"))
	if err != nil || len(repro) != 1 {
		t.Fatalf("corpus reproducers %v (%v), want one for run 7", repro, err)
	}
	if c, err := fuzz.LoadCase(repro[0]); err != nil || c.Expect != dvmc.ClassEscape || c.Fault == nil || c.Fault.Kind != "msg-drop" {
		t.Errorf("reproducer %s: %+v (%v), want a msg-drop expecting escape", repro[0], c, err)
	}

	// The shrunk case decodes and replays to the class it was shrunk from.
	want, err := fuzz.LoadCase(corpusCase)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fuzz.LoadCase(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if got.Expect != want.Expect {
		t.Errorf("shrunk case expects %s, the corpus case %s", got.Expect, want.Expect)
	}
	if code, stdout, stderr := runFuzz("replay", shrunk); code != 0 || !strings.Contains(stdout, "0 mismatches") {
		t.Errorf("replay of the shrunk case: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}
