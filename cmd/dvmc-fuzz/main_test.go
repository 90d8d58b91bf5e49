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
// replay, 1 for usage errors — the removed -coverage flag among them —
// and 2 for a found failure, which includes a replayed case that no
// longer shows its classification and a case file that does not decode.
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
		{"clean run with generations", []string{"run", "-seed", "42", "-n", "6", "-gens", "2", "-gen-size", "1", "-workers", "1"}, 0, "coverage features=", ""},
		{"clean replay", []string{"replay", clean}, 0, "replayed 1 cases, 0 mismatches", ""},
		{"failing replay", []string{"replay", failing}, 2, "MISMATCH", ""},
		{"torn case", []string{"replay", torn}, 2, "decode case: offset", ""},
		{"empty case", []string{"replay", empty}, 2, "decode case: offset 0", ""},
		{"a directory holding them", []string{"replay", dir}, 2, "replayed 4 cases, 3 mismatches", ""},
		{"missing case", []string{"replay", filepath.Join(dir, "absent.json")}, 1, "", "no such file"},
		{"no replay argument", []string{"replay"}, 1, "", "need at least one"},
		{"unknown -kinds", []string{"run", "-n", "4", "-kinds", "bogus"}, 1, "", `unknown fault kind "bogus"`},
		{"removed -coverage", []string{"run", "-n", "4", "-coverage"}, 1, "", "flag provided but not defined: -coverage"},
		{"negative -gen-size", []string{"run", "-n", "8", "-gens", "2", "-gen-size", "-1"}, 1, "", "PerGen = -1"},
		{"no random prefix left", []string{"run", "-n", "8", "-gens", "4", "-gen-size", "2"}, 1, "", "leaves no random prefix"},
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
