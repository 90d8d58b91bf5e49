package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive requires switches over enum-like constant sets — value
// switches on named integer types with a declared constant family
// (consistency.OpClass, consistency.Model, trace.Kind, coherence.SnoopKind,
// proc.OpKind, …) and type switches over coherence message payloads (the
// Msg* family) — to either cover every declared variant or carry an
// explicit default clause. Without one, adding a new variant (a new
// message type, a new consistency model) silently falls through instead
// of failing loudly, which is exactly how a checker develops a blind
// spot. The default should panic or record a violation rather than
// ignore the value.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc: "require enum and message-payload switches to cover every " +
		"declared variant or carry an explicit default",
	Run: runExhaustive,
}

func runExhaustive(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SwitchStmt:
				checkValueSwitch(p, info, s)
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(p, info, s)
			}
			return true
		})
	}
}

// checkValueSwitch enforces exhaustiveness for switches whose tag has an
// enum-like named integer type (>= 2 declared constants of exactly that
// type in its defining package).
func checkValueSwitch(p *Pass, info *types.Info, s *ast.SwitchStmt) {
	if s.Tag == nil {
		return
	}
	t := typeOf(info, s.Tag)
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return
	}
	variants := enumVariants(named)
	if len(variants) < 2 {
		return
	}

	covered := make(map[string]bool) // keyed by exact constant value
	hasDefault := false
	for _, cc := range caseClauses(s.Body) {
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			if tv, ok := info.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}
	if hasDefault {
		return
	}
	var missing []string
	for _, v := range variants {
		if !covered[v.Val.ExactString()] {
			missing = append(missing, v.Name)
		}
	}
	if len(missing) == 0 {
		return
	}
	p.Reportf(s.Pos(), "switch over %s is not exhaustive: missing %s; cover every variant or add an explicit default that panics or records a violation",
		typeName(p, named), strings.Join(missing, ", "))
}

// variant is one declared constant of an enum-like type.
type variant struct {
	Name string
	Val  constant.Value
}

// enumVariants returns the constants declared with exactly the named type
// in its defining package, deduplicated by value (aliases like an
// explicit NumKinds sentinel of a distinct value still count as
// variants; two names for one value count once, keeping the first in
// scope order — which is alphabetical, as package scopes sort names).
func enumVariants(named *types.Named) []variant {
	scope := named.Obj().Pkg().Scope()
	byVal := make(map[string]variant)
	var order []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if isSentinelName(name) {
			// Count/bound sentinels (numFaultKinds, maxState, …) are
			// not variants a switch should handle.
			continue
		}
		key := c.Val().ExactString()
		if _, dup := byVal[key]; !dup {
			byVal[key] = variant{Name: name, Val: c.Val()}
			order = append(order, key)
		}
	}
	out := make([]variant, 0, len(byVal))
	for _, k := range order {
		out = append(out, byVal[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if constant.Compare(out[i].Val, token.EQL, out[j].Val) {
			return out[i].Name < out[j].Name
		}
		return constant.Compare(out[i].Val, token.LSS, out[j].Val)
	})
	return out
}

// isSentinelName reports whether a constant name follows the
// count/bound-sentinel convention rather than naming a real variant.
// Only unexported names qualify: an exported constant is API and always
// counts as a variant.
func isSentinelName(name string) bool {
	for _, prefix := range []string{"num", "max", "min", "end", "sentinel", "_"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// checkTypeSwitch enforces exhaustiveness for type switches over the
// coherence message-payload family: if any case mentions a named struct
// type whose name starts with "Msg", the switch must cover every Msg*
// type declared in that package or carry a default clause routing
// unknown payloads somewhere explicit.
func checkTypeSwitch(p *Pass, info *types.Info, s *ast.TypeSwitchStmt) {
	var family *types.Package
	covered := make(map[string]bool)
	hasDefault := false
	for _, cc := range caseClauses(s.Body) {
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			t := typeOf(info, e)
			if t == nil {
				continue
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				continue
			}
			obj := named.Obj()
			covered[obj.Name()] = true
			if strings.HasPrefix(obj.Name(), "Msg") && obj.Pkg() != nil && family == nil {
				family = obj.Pkg()
			}
		}
	}
	if family == nil || hasDefault {
		return
	}
	variants := msgVariants(family)
	if len(variants) < 2 {
		return
	}
	var missing []string
	for _, name := range variants {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	p.Reportf(s.Pos(), "type switch over %s message payloads is not exhaustive: missing %s; cover every Msg* variant or add a default that routes unknown payloads explicitly",
		family.Name(), strings.Join(missing, ", "))
}

// msgVariants lists the concrete Msg* types declared in pkg, sorted.
func msgVariants(pkg *types.Package) []string {
	scope := pkg.Scope()
	var out []string
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Msg") {
			continue
		}
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// caseClauses returns the case clauses of a switch body.
func caseClauses(body *ast.BlockStmt) []*ast.CaseClause {
	if body == nil {
		return nil
	}
	out := make([]*ast.CaseClause, 0, len(body.List))
	for _, st := range body.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			out = append(out, cc)
		}
	}
	return out
}

// typeName renders a named type qualified relative to the pass's package.
func typeName(p *Pass, t types.Type) string {
	return fmt.Sprint(types.TypeString(t, types.RelativeTo(p.Pkg.Types)))
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
