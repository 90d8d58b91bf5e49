package analysis

// Golden-diagnostic fixture tests: each analyzer runs over a seeded-bad
// mini-module under testdata/src/<analyzer>/ and must produce exactly
// the findings marked by `// want "substring"` comments — no analyzer is
// allowed to be vacuously green, and no analyzer may over-report.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// repoModule loads this repository's module once per test binary: one
// load type-checks the module and the standard library from source, and
// the analyzers only read the result.
var repoModule = sync.OnceValues(func() (*Module, error) {
	return LoadModule(filepath.Join("..", ".."))
})

func loadRepo(t *testing.T) *Module {
	t.Helper()
	mod, err := repoModule()
	if err != nil {
		t.Fatalf("loading repo module: %v", err)
	}
	return mod
}

func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	mod, err := LoadModule(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(mod.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, mod.TypeErrors)
	}
	return mod
}

var wantRE = regexp.MustCompile(`want "([^"]*)"`)

// collectWants gathers the expected-diagnostic substrings per file:line.
func collectWants(mod *Module) map[string][]string {
	wants := make(map[string][]string)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						pos := mod.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], m[1])
					}
				}
			}
		}
	}
	return wants
}

func checkFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	mod := loadFixture(t, name)
	diags := Run(mod, []*Analyzer{a})
	if len(diags) == 0 {
		t.Fatalf("analyzer %s produced no diagnostics on seeded-bad fixture %s: vacuously green", a.Name, name)
	}
	wants := collectWants(mod)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		exp := wants[key]
		matched := -1
		for i, w := range exp {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[key] = append(exp[:matched], exp[matched+1:]...)
	}
	for key, exp := range wants {
		for _, w := range exp {
			t.Errorf("missing diagnostic at %s: want message containing %q", key, w)
		}
	}
}

func TestMapRangeFixture(t *testing.T)   { checkFixture(t, "maprange", MapRange) }
func TestDetSourceFixture(t *testing.T)  { checkFixture(t, "detsource", DetSource) }
func TestExhaustiveFixture(t *testing.T) { checkFixture(t, "exhaustive", Exhaustive) }

// TestRepoClean pins the satellite fixes: the real module must be
// diagnostic-free under the full suite, so any PR that reintroduces an
// unordered map walk, a wall-clock read, or a silently partial switch fails `go test ./...` as well as dvmc-lint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	mod := loadRepo(t)
	if len(mod.TypeErrors) > 0 {
		t.Fatalf("repo module has type errors: %v", mod.TypeErrors)
	}
	diags := Run(mod, All())
	for _, d := range diags {
		t.Errorf("repo is not lint-clean: %s", d)
	}
}
