package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture writes a one-package module into a temporary directory and
// makes it the working directory for the rest of the test. The package
// sits at internal/sim, on the determinism allowlist.
func fixture(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":              "module fixture\n\ngo 1.22\n",
		"internal/sim/sim.go": "package sim\n\n" + src,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// lint runs the command and returns its exit code and output.
func lint(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes pins the exits the doc comment promises.
func TestExitCodes(t *testing.T) {
	const clean = "// Sum adds.\nfunc Sum(a, b int) int { return a + b }\n"
	for _, tc := range []struct {
		name  string
		src   string // "" runs in this package's own directory
		args  []string
		code  int
		inOut string // a substring of stdout, or of stderr when code is 2
	}{
		{name: "list", args: []string{"-list"}, code: 0, inOut: "maprange"},
		{name: "help", args: []string{"-h"}, code: 0},
		{name: "clean", src: clean, args: []string{"./..."}, code: 0},
		{name: "clean-json", src: clean, args: []string{"-json", "./..."}, code: 0, inOut: "[]"},
		{name: "one-finding", src: "func Keys(m map[int]int) []int {\n\tvar out []int\n\tfor k := range m {\n\t\tout = append(out, k)\n\t}\n\treturn out\n}\n",
			args: []string{"./..."}, code: 1, inOut: "internal/sim/sim.go:5:2: [maprange]"},
		{name: "bad-flag", args: []string{"-no-such-flag"}, code: 2, inOut: "no-such-flag"},
		{name: "unknown-analyzer", src: clean, args: []string{"-analyzers", "nosuch", "./..."}, code: 2, inOut: "nosuch"},
		{name: "type-error", src: "var X int = \"not an int\"\n", args: []string{"./..."}, code: 2, inOut: "type error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.src != "" {
				fixture(t, tc.src)
			}
			code, stdout, stderr := lint(tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			got := stdout
			if tc.code == 2 {
				got = stderr
			}
			if !strings.Contains(got, tc.inOut) {
				t.Fatalf("output lacks %q\nstdout: %s\nstderr: %s", tc.inOut, stdout, stderr)
			}
			if tc.name == "one-finding" && strings.Count(stdout, "\n") != 1 {
				t.Fatalf("want exactly one finding, got:\n%s", stdout)
			}
		})
	}
}
