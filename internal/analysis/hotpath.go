package analysis

import (
	"go/ast"
	"go/types"
)

// HotPath is the annotation directive that declares a function part of
// the zero-allocation hot-path set enforced by the allocfree analyzer:
// `//dvmc:hotpath` in the function's doc comment. The set is declared,
// not inferred — every function a hot function statically calls must
// itself be marked (or the call annotated //dvmc:alloc-ok with a reason),
// so the full steady-state path is visible in the source.
const HotPath = "dvmc:hotpath"

// AllocOK is the annotation directive that suppresses one allocfree
// finding: `//dvmc:alloc-ok <reason>` on the line directly above (or
// trailing) the offending statement. The reason is mandatory.
const AllocOK = "dvmc:alloc-ok"

// funcInfo is one function or method declaration of the module, indexed
// for cross-package hot-path resolution.
type funcInfo struct {
	decl *ast.FuncDecl
	file *ast.File
	pkg  *Package
	hot  bool
}

// funcIndex lazily builds the module-wide map from function objects to
// their declarations, recording which carry //dvmc:hotpath. The driver
// is single-threaded, so a nil check suffices.
func (m *Module) funcIndex() map[*types.Func]*funcInfo {
	if m.funcs != nil {
		return m.funcs
	}
	m.funcs = make(map[*types.Func]*funcInfo)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				hot, _ := directiveFor(m.Fset, f, fd, HotPath)
				m.funcs[obj] = &funcInfo{decl: fd, file: f, pkg: pkg, hot: hot}
			}
		}
	}
	return m.funcs
}

// calleeOf resolves a call expression to the module-internal function or
// method it statically invokes, or nil when the callee is a builtin, a
// function value, an interface method, or code outside the module. These
// unresolved calls are analysis boundaries: interface dispatch is how
// the hot path deliberately hands work across ownership lines (network
// handlers, violation sinks), and the static hot-path set stops there.
func calleeOf(info *types.Info, mod *Module, call *ast.CallExpr) *funcInfo {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method call: concrete receiver methods resolve statically;
			// interface methods do not.
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			obj = sel.Obj()
		} else {
			// Package-qualified function.
			obj = info.Uses[fun.Sel]
		}
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// A method of an instantiated generic type is declared once, on the
	// generic type.
	return mod.funcIndex()[fn.Origin()]
}

// triviallyClean reports whether fi is provably allocation-free without a
// //dvmc:hotpath mark: a leaf (or near-leaf) whose body contains no
// allocating construct and whose calls all resolve to hot or trivially
// clean module functions. This keeps tiny accessors — Addr.Block(),
// Time16 comparisons, coherence-state predicates — out of the annotation
// burden: the analyzer verifies them automatically instead of demanding
// a mark on every two-line getter the hot path touches. Verdicts are
// memoized per module; recursion cycles conservatively count as dirty.
func (m *Module) triviallyClean(fi *funcInfo) bool {
	if m.clean == nil {
		m.clean = make(map[*funcInfo]int8)
	}
	switch m.clean[fi] {
	case 1:
		return true
	case 2:
		return false
	}
	m.clean[fi] = 2 // break cycles conservatively
	if computeClean(m, fi) {
		m.clean[fi] = 1
		return true
	}
	return false
}

// computeClean is triviallyClean's single-body scan. Subtrees under
// panic(...) arguments are skipped: a crash path may format all it
// wants.
func computeClean(m *Module, fi *funcInfo) bool {
	if fi.decl.Body == nil {
		return false
	}
	info := fi.pkg.Info
	clean := true
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if !clean || n == nil {
				return false
			}
			switch e := n.(type) {
			case *ast.CompositeLit, *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				clean = false
				return false
			case *ast.UnaryExpr:
				return true // &x of an existing value does not allocate
			case *ast.BinaryExpr:
				if e.Op.String() == "+" {
					if t := typeOf(info, e); t != nil && isString(t) {
						if tv, ok := info.Types[ast.Expr(e)]; !ok || tv.Value == nil {
							clean = false
							return false
						}
					}
				}
				return true
			case *ast.CallExpr:
				if isPanicCall(e) {
					return false // skip the whole crash-path subtree
				}
				if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						switch id.Name {
						case "make", "new", "append":
							clean = false
						}
						return false
					}
				}
				if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
					to, from := tv.Type, typeOf(info, e.Args[0])
					if types.IsInterface(to) || (from != nil && stringBytesConversion(to, from)) {
						clean = false
					}
					return false
				}
				if boxesAnyArg(info, e) {
					clean = false
					return false
				}
				callee := calleeOf(info, m, e)
				if callee == nil {
					clean = false // unknown target: stdlib, interface, func value
					return false
				}
				if !callee.hot && !m.triviallyClean(callee) {
					clean = false
					return false
				}
				// The call target is fine; still scan the arguments.
				for _, a := range e.Args {
					walk(a)
				}
				return false
			}
			return true
		})
	}
	walk(fi.decl.Body)
	return clean
}

// boxesAnyArg reports whether any argument of the call is a non-pointer
// concrete value passed into an interface-typed parameter slot.
func boxesAnyArg(info *types.Info, call *ast.CallExpr) bool {
	sig := callSignature(info, call)
	if sig == nil {
		return false
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		t := typeOf(info, arg)
		if t == nil || types.IsInterface(t) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && (tv.Value != nil || tv.IsNil()) {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Signature, *types.Map:
			continue
		}
		return true
	}
	return false
}

// noteEmptyAllocOK records a missing-reason //dvmc:alloc-ok annotation
// and reports whether it was already noted (so the finding is emitted
// exactly once per statement, however many allocations it covers).
func (m *Module) noteEmptyAllocOK(stmt ast.Node) bool {
	if m.emptyAllocOK == nil {
		m.emptyAllocOK = make(map[ast.Node]bool)
	}
	if m.emptyAllocOK[stmt] {
		return true
	}
	m.emptyAllocOK[stmt] = true
	return false
}
