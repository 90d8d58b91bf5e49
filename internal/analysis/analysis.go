package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static-analysis pass. Run is invoked once per package;
// it reports findings through the Pass.
type Analyzer struct {
	// Name is the short identifier printed inside [brackets] in
	// diagnostics and accepted by dvmc-lint's -analyzers flag.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one type-checked package.
	Run func(*Pass)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, DetSource, Time16Cmp, Exhaustive}
}

// ByName resolves a comma-separated analyzer list ("maprange,detsource").
// The empty string selects the whole suite.
func ByName(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have maprange, detsource, time16cmp, exhaustive)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical "file:line:col: [analyzer]
// message" form consumed by CI and editors.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Mod.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DeterministicPkgs is the allowlist of module-relative package paths that
// must replay byte-identically for a fixed seed: everything the simulated
// machine and its checkers are made of. Code outside this set (the CLIs
// under cmd/, the examples, the top-level experiment harness) may use wall
// clocks, goroutines, and environment lookups freely — dvmc-bench's use of
// time.Now to measure host throughput is legitimate, a cache controller's
// would not be.
var DeterministicPkgs = map[string]bool{
	"internal/sim":       true,
	"internal/core":      true,
	"internal/coherence": true,
	"internal/proc":      true,
	"internal/mem":       true,
	"internal/network":   true,
	"internal/trace":     true,
	"internal/frame":     true,
	"internal/safetynet": true,
	"internal/telemetry": true,
	"internal/span":      true,

	"internal/oracle/stream": true,
}

// Deterministic reports whether the pass's package is on the
// determinism allowlist.
func (p *Pass) Deterministic() bool {
	return DeterministicPkgs[p.Mod.Rel(p.Pkg.Path)]
}

// Run executes the analyzers over every package of the module and returns
// the findings sorted by position (file, line, column, analyzer) so output
// is itself deterministic.
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range mod.Pkgs {
			a.Run(&Pass{Analyzer: a, Mod: mod, Pkg: pkg, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// OrderInsensitive is the annotation directive that suppresses a maprange
// finding: `//dvmc:orderinsensitive <reason>` on the line immediately
// above (or trailing) the range statement. The reason is mandatory — an
// annotation without one does not suppress.
const OrderInsensitive = "dvmc:orderinsensitive"

// directiveFor scans the file's comments for a `//<directive> <reason>`
// annotation attached to node: either a comment group whose last line is
// directly above the node or a trailing comment on the node's first line.
// It returns whether the directive was found and the trimmed reason text.
func directiveFor(fset *token.FileSet, file *ast.File, node ast.Node, directive string) (found bool, reason string) {
	nodeLine := fset.Position(node.Pos()).Line
	for _, cg := range file.Comments {
		endLine := fset.Position(cg.End()).Line
		if endLine != nodeLine-1 && endLine != nodeLine {
			continue
		}
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//"+directive) {
				continue
			}
			rest := strings.TrimPrefix(text, "//"+directive)
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}

// walkWithStack traverses the subtree rooted at node calling fn for every
// node with the stack of ancestors (outermost first, ending at the node
// itself).
func walkWithStack(node ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	v := &stackVisitor{fn: fn}
	ast.Walk(v, node)
}

type stackVisitor struct {
	stack []ast.Node
	fn    func(n ast.Node, stack []ast.Node)
}

func (v *stackVisitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		v.stack = v.stack[:len(v.stack)-1]
		return nil
	}
	v.stack = append(v.stack, n)
	v.fn(n, v.stack)
	return v
}
