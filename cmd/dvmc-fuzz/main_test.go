package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvmc/internal/fuzz"
)

func runFuzz(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes pins the tool's contract: 0 for a clean campaign or
// replay, 1 for usage errors — the removed -coverage, -gens, and run's
// -spans-out and -metrics-out flags among them, and replay observers
// asked of anything but one case file — and 2 for a found failure, which
// includes a replayed case that no longer shows its classification and a
// case file that does not decode.
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
	c.Expect = fuzz.ClassEscape // it runs agree-clean
	wrong, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	failing := file("failing.json", wrong)
	torn := file("torn.json", []byte(generated[:len(generated)/2]))
	empty := file("empty.json", nil)

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"clean run", []string{"run", "-seed", "42", "-n", "6", "-workers", "1"}, 0, "campaign seed=42 runs=6", ""},
		{"clean replay", []string{"replay", clean}, 0, "replayed 1 cases, 0 mismatches", ""},
		{"failing replay", []string{"replay", failing}, 2, "MISMATCH", ""},
		{"torn case", []string{"replay", torn}, 2, "decode case: offset", ""},
		{"empty case", []string{"replay", empty}, 2, "decode case: offset 0", ""},
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
		{"unknown subcommand", []string{"fuzz"}, 1, "", "unknown subcommand"},
		{"no subcommand", nil, 1, "", "usage:"},
	} {
		code, stdout, stderr := runFuzz(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, want %d with stdout %q and stderr %q; got\nstdout: %s\nstderr: %s",
				tc.name, code, tc.code, tc.stdout, tc.stderr, stdout, stderr)
		}
	}
}
