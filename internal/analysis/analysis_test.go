package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 4 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 4, nil", len(all), err)
	}
	two, err := ByName("maprange, time16cmp")
	if err != nil || len(two) != 2 || two[0].Name != "maprange" || two[1].Name != "time16cmp" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "a/b.go", Line: 12, Column: 3},
		Analyzer: "maprange",
		Message:  "boom",
	}
	if got, want := d.String(), "a/b.go:12:3: [maprange] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestDeterministicAllowlist(t *testing.T) {
	// Every allowlisted package must exist in the repo module; a stale
	// entry would silently stop being enforced after a rename.
	mod := loadRepo(t)
	have := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		have[mod.Rel(pkg.Path)] = true
	}
	for rel := range DeterministicPkgs {
		if !have[rel] {
			t.Errorf("DeterministicPkgs lists %q, which is not a package of this module", rel)
		}
	}
	// And the cmd/ trees must stay off the allowlist (dvmc-bench's
	// time.Now is legitimate).
	for rel := range DeterministicPkgs {
		if strings.HasPrefix(rel, "cmd/") {
			t.Errorf("DeterministicPkgs must not include command packages, got %q", rel)
		}
	}
}
