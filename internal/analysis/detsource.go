package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DetSource bans the sources of nondeterminism in the deterministic
// packages. Data: wall-clock reads (time.Now), the global math/rand
// generators, and environment lookups (os.Getenv / os.LookupEnv).
// Randomness must come from seed-forked sim.Rand streams and time from
// the event kernel's cycle counter. Scheduling: go statements, select,
// and the sync and sync/atomic imports. Channels are not banned: without
// a goroutine to run the other end they cannot reorder anything.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc: "ban time.Now, math/rand, os.Getenv, go, select, and sync in " +
		"deterministic packages; use sim.Rand and the event kernel instead",
	Run: runDetSource,
}

func runDetSource(p *Pass) {
	if !p.Deterministic() {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			switch path {
			case "math/rand", "math/rand/v2":
				p.Reportf(spec.Pos(), "import of %s seeds from global, run-varying state; use a forked sim.Rand stream instead", path)
			case "sync", "sync/atomic":
				p.Reportf(spec.Pos(), "import of %s: locks and atomics reintroduce host scheduling into the replay; keep concurrency in the cmd and fabric layers", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement in deterministic package: goroutine interleaving is host-scheduler nondeterminism; drive concurrency from the cmd or fabric layer")
			case *ast.SelectStmt:
				p.Reportf(n.Pos(), "select in deterministic package: select picks among ready cases pseudo-randomly and breaks replay")
			case *ast.SelectorExpr:
				pkg, sel := selectorPkgFunc(info, n)
				switch {
				case pkg == "time" && sel == "Now":
					p.Reportf(n.Pos(), "time.Now reads the wall clock, which differs across runs; deterministic packages must derive time from the event kernel's cycle counter (sim.Cycle)")
				case pkg == "os" && (sel == "Getenv" || sel == "LookupEnv" || sel == "Environ"):
					p.Reportf(n.Pos(), "os.%s makes behavior depend on the host environment; thread configuration through Config instead", sel)
				}
			}
			return true
		})
	}
}

// selectorPkgFunc resolves pkg.Name selector expressions to the imported
// package path and selected name; it returns "" for non-package
// selectors (field or method accesses).
func selectorPkgFunc(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
