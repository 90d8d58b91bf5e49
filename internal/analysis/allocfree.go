package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFree flags heap allocations inside the declared hot-path set: the
// functions marked //dvmc:hotpath, which are the steady-state paths PR 4
// and PR 5 pinned to 0 allocs/op with AllocsPerRun. The dynamic
// assertions catch a regression only on the inputs a test happens to
// drive; this analyzer proves the property over every statement of every
// hot function, the same post-hoc-to-proactive move the paper's dynamic
// verification argument makes for hardware checkers.
//
// Reported allocation sources:
//
//   - make, new, and composite literals that escape the function
//   - append (growth may reallocate the backing array — amortized-zero
//     recycling appends carry a //dvmc:alloc-ok reason)
//   - interface boxing: a non-pointer concrete value converted to an
//     interface type at a call, assignment, or return
//   - closures that capture variables (the capture forces a heap cell)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - any call into package fmt (reflection-driven, always allocates)
//
// A lightweight per-function escape pass suppresses allocations that
// provably stay local (Go's compiler stack-allocates those), and
// allocations on panic-only paths are exempt: a crash path never runs in
// steady state.
//
// The hot set is closed under static calls: a hot function calling a
// module-internal function requires the callee to be marked
// //dvmc:hotpath too, unless the callee is provably allocation-free
// (a trivially clean leaf) or the call is annotated //dvmc:alloc-ok with
// a reason (cold fallbacks like pool refills). Interface dispatch and
// function values are boundaries where the static set ends.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "forbid heap allocation in //dvmc:hotpath functions: escaping " +
		"composites, make/new/append growth, boxing, closures, string " +
		"concat, and fmt; //dvmc:alloc-ok <reason> exempts a statement",
	Run: runAllocFree,
}

func runAllocFree(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hot, _ := directiveFor(p.Mod.Fset, f, fd, HotPath); !hot {
				continue
			}
			checkHotFunc(p, f, fd)
		}
	}
}

// checkHotFunc reports every potential heap allocation in one hot
// function.
func checkHotFunc(p *Pass, file *ast.File, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkCall(p, file, fd, e, stack)
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return
			}
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); !ok {
				return
			}
			if exempt(p, file, e, stack) || localOnly(info, fd, e, stack) {
				return
			}
			report(p, file, e, stack, "heap", "&composite literal escapes and allocates on the hot path; reuse a pooled or preallocated object")
		case *ast.CompositeLit:
			checkCompositeLit(p, info, file, fd, e, stack)
		case *ast.BinaryExpr:
			if e.Op != token.ADD {
				return
			}
			t := typeOf(info, e)
			if t == nil || !isString(t) {
				return
			}
			if tv, ok := info.Types[ast.Expr(e)]; ok && tv.Value != nil {
				return // constant-folded at compile time
			}
			if exempt(p, file, e, stack) {
				return
			}
			report(p, file, e, stack, "string", "string concatenation allocates on the hot path; retain a []byte scratch buffer instead")
		case *ast.FuncLit:
			checkFuncLit(p, info, file, e, stack)
		}
	})
	checkBoxing(p, file, fd)
}

// checkCall handles the call-shaped allocation sources: the allocating
// builtins, string conversions, fmt, and the hot-set closure rule.
func checkCall(p *Pass, file *ast.File, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	info := p.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if exempt(p, file, call, stack) || localOnly(info, fd, call, stack) {
					return
				}
				report(p, file, call, stack, "heap", "make allocates on the hot path; preallocate at construction and reuse")
			case "new":
				if exempt(p, file, call, stack) || localOnly(info, fd, call, stack) {
					return
				}
				report(p, file, call, stack, "heap", "new allocates on the hot path; preallocate at construction and reuse")
			case "append":
				if exempt(p, file, call, stack) {
					return
				}
				report(p, file, call, stack, "heap", "append may grow its backing array on the hot path; if capacity amortizes to steady state, annotate //dvmc:alloc-ok with the reason")
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune copy their contents.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, typeOf(info, call.Args[0])
		if from != nil && stringBytesConversion(to, from) {
			if tv, ok := info.Types[ast.Expr(call)]; ok && tv.Value != nil {
				return // constant conversion
			}
			if !exempt(p, file, call, stack) {
				report(p, file, call, stack, "string", "string/byte-slice conversion copies and allocates on the hot path")
			}
		}
		return
	}
	// fmt is reflection-driven and always allocates.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkg, _ := selectorPkgFunc(info, sel); pkg == "fmt" {
			if !exempt(p, file, call, stack) {
				report(p, file, call, stack, "fmt", "fmt call formats through reflection and allocates on the hot path")
			}
			return
		}
	}
	// The hot set is closed under static calls: module-internal callees
	// must be hot, trivially allocation-free, or annotated cold.
	fi := calleeOf(info, p.Mod, call)
	if fi == nil || fi.hot {
		return
	}
	if p.Mod.triviallyClean(fi) {
		return
	}
	if exempt(p, file, call, stack) {
		return
	}
	name := fi.decl.Name.Name
	if fi.decl.Recv != nil {
		if rt := recvTypeName(fi.decl); rt != "" {
			name = rt + "." + name
		}
	}
	report(p, file, call, stack, "hotset", "hot path calls "+name+", which is neither marked //dvmc:hotpath nor provably allocation-free; mark it, or annotate this call //dvmc:alloc-ok <reason> if it is a cold fallback")
}

// checkCompositeLit flags composite literals whose backing storage is
// heap-allocated: slice and map literals, and value literals converted
// to an interface. Struct literals stored by value into existing memory
// are free and stay silent.
func checkCompositeLit(p *Pass, info *types.Info, file *ast.File, fd *ast.FuncDecl, lit *ast.CompositeLit, stack []ast.Node) {
	// &T{...} is handled at the UnaryExpr; skip the inner literal.
	if len(stack) >= 2 {
		if ue, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && ue.Op == token.AND {
			return
		}
	}
	t := typeOf(info, lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		if exempt(p, file, lit, stack) || localOnly(info, fd, lit, stack) {
			return
		}
		report(p, file, lit, stack, "heap", "slice/map literal allocates its backing storage on the hot path; preallocate and reuse")
	}
}

// checkFuncLit flags closures that capture enclosing variables: the
// captured cells (and usually the closure itself) are heap-allocated.
// Capture-free function literals compile to static functions and are
// silent.
func checkFuncLit(p *Pass, info *types.Info, file *ast.File, lit *ast.FuncLit, stack []ast.Node) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared outside the literal but inside some
		// function; package-level vars (whose scope's parent is the
		// universe) are not captures.
		if v.Parent() != nil && v.Parent().Parent() != types.Universe {
			if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
				captured = v.Name()
			}
		}
		return false
	})
	if captured == "" {
		return
	}
	if exempt(p, file, lit, stack) {
		return
	}
	report(p, file, lit, stack, "heap", "closure captures "+captured+" and allocates on the hot path; hoist the closure to construction time and reuse it")
}

// checkBoxing reports interface boxing: a non-pointer concrete value
// converted to an interface type. Pointer, channel, and function values
// fit the interface word and do not allocate; everything else is copied
// to the heap (small-integer caching aside, which is not a contract).
func checkBoxing(p *Pass, file *ast.File, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || isPanicCall(call) {
			return // panic's argument boxes on the crash path only
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			// Conversion, not a call; a direct iface conversion of a
			// concrete value:
			if types.IsInterface(tv.Type) && len(call.Args) == 1 {
				flagBoxedArg(p, info, file, call.Args[0], call, stack)
			}
			return
		}
		sig := callSignature(info, call)
		if sig == nil {
			return
		}
		for i, arg := range call.Args {
			var param types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				if call.Ellipsis.IsValid() {
					continue // slice passed through, no per-element boxing
				}
				param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			case i < sig.Params().Len():
				param = sig.Params().At(i).Type()
			default:
				continue
			}
			if types.IsInterface(param) {
				flagBoxedArg(p, info, file, arg, call, stack)
			}
		}
	})
}

// flagBoxedArg reports arg if passing it into an interface-typed slot
// heap-allocates a copy.
func flagBoxedArg(p *Pass, info *types.Info, file *ast.File, arg ast.Expr, call *ast.CallExpr, stack []ast.Node) {
	t := typeOf(info, arg)
	if t == nil || types.IsInterface(t) {
		return
	}
	if tv, ok := info.Types[arg]; ok && (tv.Value != nil || tv.IsNil()) {
		return // untyped constants and nil box without a per-call allocation
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature, *types.Map:
		return // single-word values: no copy
	}
	if exempt(p, file, call, stack) {
		return
	}
	report(p, file, arg, stack, "boxing", "value of type "+types.TypeString(t, types.RelativeTo(p.Pkg.Types))+" is boxed into an interface and allocates on the hot path; pass a pointer or a concrete type")
}

// exempt reports whether the node sits on a panic-only path (transitively
// an argument of a panic call) or its enclosing statement carries a
// reasoned //dvmc:alloc-ok annotation. An annotation without a reason is
// itself reported, once, at the statement.
func exempt(p *Pass, file *ast.File, n ast.Node, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok && isPanicCall(call) && call != ast.Node(n) {
			return true
		}
	}
	stmt := enclosingStmt(stack)
	if stmt == nil {
		return false
	}
	found, reason := directiveFor(p.Mod.Fset, file, stmt, AllocOK)
	if !found {
		return false
	}
	if reason == "" {
		if !p.Mod.noteEmptyAllocOK(stmt) {
			p.Reportf(stmt.Pos(), "//%s annotation requires a reason explaining why this allocation is acceptable", AllocOK)
		}
		return false
	}
	return true
}

// report emits one allocfree diagnostic with its category as the
// machine-readable reason.
func report(p *Pass, file *ast.File, n ast.Node, stack []ast.Node, category, msg string) {
	p.ReportfReason(n.Pos(), category, "%s", msg)
}

// localOnly is the lightweight escape check: when the allocation's value
// is bound to a single local variable that is never returned, stored,
// passed, captured, or re-aliased, Go's escape analysis keeps it on the
// stack and the "allocation" is free. Only the direct
// `x := <alloc>` / `x = <alloc>` shape qualifies; anything nested inside
// a larger expression escapes conservatively.
func localOnly(info *types.Info, fd *ast.FuncDecl, alloc ast.Expr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	as, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Rhs[0] != alloc {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok || lhs.Name == "_" {
		return false
	}
	v, ok := objOf(info, lhs).(*types.Var)
	if !ok {
		return false
	}
	if v.Parent() == nil || v.Parent().Parent() == types.Universe {
		return false // package-level variable: outlives the frame by definition
	}
	escapes := false
	walkWithStack(fd.Body, func(n ast.Node, s []ast.Node) {
		if escapes {
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok || objOf(info, id) != types.Object(v) {
			return
		}
		if identEscapes(id, s) {
			escapes = true
		}
	})
	return !escapes
}

// identEscapes reports whether this use of the identifier lets the value
// outlive the frame: returned, passed to a call, stored through a
// non-local lvalue, placed in a composite literal, captured by a
// closure, or re-aliased to another name.
func identEscapes(id *ast.Ident, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if parent.Fun == stack[i+1] {
				continue // it IS the callee, not an argument
			}
			return true
		case *ast.CompositeLit:
			return true
		case *ast.FuncLit:
			return true // used inside a closure: captured
		case *ast.SendStmt:
			return true
		case *ast.AssignStmt:
			// Writing *through* the variable (x.f = v, x[i] = v) is fine;
			// assigning the variable itself elsewhere re-aliases it.
			for _, rhs := range parent.Rhs {
				if containsNode(rhs, stack[i+1]) {
					return true
				}
			}
			return false
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.ParenExpr:
			continue // x.f / x[i] / *x: still rooted at x
		case ast.Stmt:
			return false
		}
	}
	return false
}

// containsNode reports whether root's subtree contains target.
func containsNode(root, target ast.Node) bool {
	if root == target {
		return true
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if n == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// enclosingStmt returns the innermost statement on the stack.
func enclosingStmt(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if st, ok := stack[i].(ast.Stmt); ok {
			return st
		}
	}
	return nil
}

// callSignature resolves the signature of a (non-conversion) call.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := typeOf(info, call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// recvTypeName extracts the receiver's base type name from a method decl.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	// A generic receiver names its type parameters: FreeList[T].
	switch ix := t.(type) {
	case *ast.IndexExpr:
		t = ix.X
	case *ast.IndexListExpr:
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// stringBytesConversion reports whether a conversion between to and from
// copies data: string <-> []byte / []rune in either direction.
func stringBytesConversion(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) || (isString(from) && isByteOrRuneSlice(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
