package coherence

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stubImporter hands the type checker an empty package for every import:
// the names used from it stay undefined (reported, and ignored), which
// leaves every expression of this package's own types typed.
type stubImporter struct{}

func (stubImporter) Import(p string) (*types.Package, error) {
	pkg := types.NewPackage(p, path.Base(p))
	pkg.MarkComplete()
	return pkg, nil
}

// TestLineWrites: every change to a line's block, state, valid, dataValid
// or data is made in cache.go, by a cacheArray method that marks the
// line's set touched. A write anywhere else would not reach the next
// checkpoint, whose capture re-reads only the touched sets. The check
// type-checks the package's non-test files and flags, outside cache.go,
// an assignment or increment whose target is a line or one of those
// fields of a line, and the address of such a field.
func TestLineWrites(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["coherence"].Files {
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool { return fset.File(files[i].Pos()).Name() < fset.File(files[j].Pos()).Name() })
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: stubImporter{}, Error: func(error) {}}
	pkg, _ := conf.Check("dvmc/internal/coherence", fset, files, info)
	lineType := pkg.Scope().Lookup("line").Type()

	isLine := func(e ast.Expr) bool {
		typ := info.TypeOf(e)
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		return typ != nil && types.Identical(typ, lineType)
	}
	guarded := map[string]bool{"block": true, "state": true, "valid": true, "dataValid": true, "data": true}
	// field reports whether e is one of those fields of a line, or an
	// element of one (l.data[i]).
	var field func(e ast.Expr) bool
	field = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return field(e.X)
		case *ast.IndexExpr:
			return field(e.X)
		case *ast.SelectorExpr:
			return guarded[e.Sel.Name] && isLine(e.X)
		}
		return false
	}
	// written reports whether assigning to e changes a cache line: one of
	// its fields, or the whole line (*l, or set[i] of a []line).
	written := func(e ast.Expr) bool {
		switch e.(type) {
		case *ast.StarExpr, *ast.IndexExpr:
			if isLine(e) {
				return true
			}
		}
		return field(e)
	}

	writes := map[string][]string{} // file → positions
	for _, f := range files {
		name := filepath.Base(fset.File(f.Pos()).Name())
		flag := func(e ast.Expr, changes func(ast.Expr) bool) {
			if changes(e) {
				writes[name] = append(writes[name], fset.Position(e.Pos()).String())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						flag(lhs, written)
					}
				}
			case *ast.IncDecStmt:
				flag(n.X, written)
			case *ast.UnaryExpr:
				// &l.data hands out a way to write it; &set[i] is how a
				// line is reached at all.
				if n.Op == token.AND {
					flag(n.X, field)
				}
			}
			return true
		})
	}
	// cache.go is where the writes are: finding them there shows the
	// check sees a write when there is one.
	if len(writes["cache.go"]) == 0 {
		t.Fatal("no line write found in cache.go: the check is blind")
	}
	for name, at := range writes {
		if name != "cache.go" {
			t.Errorf("%s writes a cache line outside cacheArray's methods, so no checkpoint would see it: %s",
				name, strings.Join(at, ", "))
		}
	}
}
