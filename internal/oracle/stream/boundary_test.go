package stream

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOracleImportBoundary: the trace oracle judges the simulator, so it
// shares nothing with it beyond the trace it reads and that trace's
// vocabulary. The non-test files of internal/oracle and this package may
// import, of this module, only consistency, mem, sim, trace and oracle.
func TestOracleImportBoundary(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"consistency", "mem", "sim", "trace", "oracle"} {
		allowed["dvmc/internal/"+p] = true
	}
	files := 0
	for _, dir := range []string{"..", "."} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if (path == "dvmc" || strings.HasPrefix(path, "dvmc/")) && !allowed[path] {
					t.Errorf("%s imports %s: the oracle may import only consistency, mem, sim, trace and oracle of this module", name, path)
				}
			}
		}
	}
	if files < 2 {
		t.Fatalf("parsed %d non-test files, want those of internal/oracle and internal/oracle/stream", files)
	}
}
