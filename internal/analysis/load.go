package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, type-checked package of the module under
// analysis.
type Package struct {
	// Path is the full import path (module path + relative directory).
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types is the type-checked package (usable even when TypeErrors
	// were recorded).
	Types *types.Package
	// Info holds the expression/object resolution produced by the
	// checker.
	Info *types.Info
}

// Module is a loaded Go module: every non-test package under the module
// root, parsed and type-checked bottom-up.
type Module struct {
	// Path is the module path from go.mod.
	Path string
	// Root is the absolute module root directory.
	Root string
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Pkgs lists the packages in dependency (topological) order.
	Pkgs []*Package
	// TypeErrors collects type-checking problems. Analysis proceeds in
	// their presence, but drivers should surface them: findings computed
	// from a partially-checked package may be incomplete.
	TypeErrors []error
}

// Rel returns pkgPath relative to the module path ("" for the root
// package).
func (m *Module) Rel(pkgPath string) string {
	if pkgPath == m.Path {
		return ""
	}
	return strings.TrimPrefix(pkgPath, m.Path+"/")
}

// LoadModule parses and type-checks every non-test package under root,
// which must contain a go.mod. Standard-library dependencies are
// type-checked from $GOROOT source (no export data, no external tooling),
// module-internal dependencies from the packages loaded here; go.mod must
// therefore declare no requirements, which is a deliberate constraint of
// this repository.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Path: modPath, Root: root, Fset: token.NewFileSet()}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	// Parse every package.
	type parsed struct {
		pkg     *Package
		imports []string // module-internal import paths
	}
	byPath := make(map[string]*parsed)
	var order []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		files, imps, err := parseDir(mod.Fset, dir, modPath)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		byPath[path] = &parsed{
			pkg:     &Package{Path: path, Dir: dir, Files: files},
			imports: imps,
		}
		order = append(order, path)
	}
	sort.Strings(order)

	// Topologically sort by module-internal imports so dependencies are
	// checked first.
	topo, err := toposort(order, func(p string) []string {
		var deps []string
		for _, imp := range byPath[p].imports {
			if _, ok := byPath[imp]; ok {
				deps = append(deps, imp)
			}
		}
		return deps
	})
	if err != nil {
		return nil, err
	}

	// Type-check bottom-up. Stdlib comes from GOROOT source.
	imp := &moduleImporter{
		std:     importer.ForCompiler(mod.Fset, "source", nil),
		checked: make(map[string]*types.Package),
	}
	for _, path := range topo {
		p := byPath[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				mod.TypeErrors = append(mod.TypeErrors, err)
			},
		}
		tpkg, _ := conf.Check(path, mod.Fset, p.pkg.Files, info)
		p.pkg.Types = tpkg
		p.pkg.Info = info
		imp.checked[path] = tpkg
		mod.Pkgs = append(mod.Pkgs, p.pkg)
	}
	return mod, nil
}

// moduleImporter resolves module-internal imports from the packages
// already checked in this load, and everything else (the standard
// library) through the source importer.
type moduleImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: cannot read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			if mp != "" {
				return strings.Trim(mp, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// packageDirs walks root collecting directories that contain non-test Go
// files, skipping testdata, vendor, hidden directories, and nested
// modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root {
				if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				// A nested go.mod starts a different module.
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files of one directory contiguously, but be safe:
	// dedupe after sorting.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// parseDir parses the non-test Go files of one directory and returns the
// files plus the module-internal import paths they mention.
func parseDir(fset *token.FileSet, dir, modPath string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	var imps []string
	seen := make(map[string]bool)
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
				seen[p] = true
				imps = append(imps, p)
			}
		}
	}
	return files, imps, nil
}

// toposort orders nodes so that deps(n) precede n. It fails on import
// cycles (which the go toolchain would reject anyway).
func toposort(nodes []string, deps func(string) []string) ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(nodes))
	var out []string
	var visit func(string) error
	visit = func(n string) error {
		switch state[n] {
		case gray:
			return fmt.Errorf("analysis: import cycle through %s", n)
		case black:
			return nil
		}
		state[n] = gray
		for _, d := range deps(n) {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[n] = black
		out = append(out, n)
		return nil
	}
	for _, n := range nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}
