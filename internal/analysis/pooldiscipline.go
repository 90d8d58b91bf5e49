package analysis

import (
	"go/ast"
	"go/types"
)

// poolAcquire and poolRelease name the module's one object pool: every
// recycled object — inform messages, torus transits, write-buffer
// entries, cache-controller event records, micro-ops — comes out of a
// sim.FreeList and goes back into one. A pooled object that exits a
// function without being released or handed off is exactly the PR 4
// lost-message hazard: the object is live forever, the pool refills from
// the heap, and the steady-state 0 allocs/op claim quietly dies.
const (
	poolAcquire = "FreeList.Get"
	poolRelease = "FreeList.Put"
)

// poolAcquire reports whether calling fi acquires a pooled object, and
// under what name to report it: FreeList.Get itself, or a wrapper that
// returns what it (or another wrapper) acquired — InformPool.message and
// its siblings — whose callers then own the object just the same.
func (m *Module) poolAcquire(fi *funcInfo) (name string, ok bool) {
	if fi == nil {
		return "", false
	}
	if name, seen := m.acquires[fi]; seen {
		return name, name != ""
	}
	if m.acquires == nil {
		m.acquires = make(map[*funcInfo]string)
	}
	m.acquires[fi] = "" // a recursion cycle acquires nothing
	name = recvTypeName(fi.decl) + "." + fi.decl.Name.Name
	if fi.decl.Recv == nil {
		name = fi.decl.Name.Name
	}
	if name != poolAcquire && !m.returnsAcquired(fi) {
		return "", false
	}
	m.acquires[fi] = name
	return name, true
}

// returnsAcquired reports whether some return statement of fi hands back
// an acquire call's result, directly or through the variable it was
// bound to.
func (m *Module) returnsAcquired(fi *funcInfo) bool {
	if fi.decl.Body == nil {
		return false
	}
	info := fi.pkg.Info
	isAcquire := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		_, ok = m.poolAcquire(calleeOf(info, m, call))
		return ok
	}
	bound := map[types.Object]bool{}
	found := false
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(st.Lhs) == 1 && len(st.Rhs) == 1 && isAcquire(st.Rhs[0]) {
				if id, ok := st.Lhs[0].(*ast.Ident); ok {
					bound[objOf(info, id)] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && bound[objOf(info, id)] {
					found = true
				} else if isAcquire(r) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// PoolDiscipline is the intra-procedural ownership check over pooled
// objects: every acquire must be matched, on every path to a function
// exit, by a release or an ownership handoff (passed to a call, stored
// into a structure, returned, sent, or captured). The check walks the
// suite's per-function CFG; paths ending in panic are exempt (a crash
// path leaks nothing into steady state). It is deliberately
// may-leak-biased: aliasing an acquired object to a second variable
// counts as a handoff, and functions using goto are skipped rather than
// guessed at.
var PoolDiscipline = &Analyzer{
	Name: "pooldiscipline",
	Doc: "require every pool acquire (sim.FreeList's Get, or a wrapper " +
		"returning what it got) to be released or handed off on all " +
		"paths to a function exit",
	Run: runPoolDiscipline,
}

func runPoolDiscipline(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(p, fd)
		}
	}
}

// acquireSite is one pool-acquire call and how its result is bound.
type acquireSite struct {
	call *ast.CallExpr
	stmt ast.Stmt   // the statement the call is the direct RHS/expr of
	v    *types.Var // bound variable, nil when discarded or handed off
}

func checkPoolFunc(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	var sites []acquireSite
	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		key, ok := p.Mod.poolAcquire(calleeOf(info, p.Mod, call))
		if !ok {
			return
		}
		site := acquireSite{call: call}
		if len(stack) >= 2 {
			switch parent := stack[len(stack)-2].(type) {
			case *ast.AssignStmt:
				if len(parent.Lhs) == 1 && len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) {
					if id, ok := parent.Lhs[0].(*ast.Ident); ok {
						if id.Name == "_" {
							p.ReportfReason(call.Pos(), "pool-leak", "pooled object from %s is discarded; it will never reach %s and leaks from the pool", key, poolRelease)
							return
						}
						if v, ok := objOf(info, id).(*types.Var); ok {
							site.stmt = parent
							site.v = v
						}
					}
				}
			case *ast.ExprStmt:
				if parent.X == ast.Expr(call) {
					p.ReportfReason(call.Pos(), "pool-leak", "pooled object from %s is discarded; it will never reach %s and leaks from the pool", key, poolRelease)
					return
				}
			}
		}
		if site.v == nil {
			// Nested in a larger expression (call argument, return value,
			// field store): ownership is handed off at the acquire site.
			return
		}
		sites = append(sites, site)
	})
	if len(sites) == 0 {
		return
	}
	g, ok := buildCFG(fd.Body)
	if !ok {
		return // goto/labels: out of the CFG's scope, skip silently
	}
	for _, site := range sites {
		checkAcquirePaths(p, g, site)
	}
}

// checkAcquirePaths verifies that from the acquire statement, every path
// to a function exit consumes the bound variable: releases it, passes it
// on, stores it, returns it, or overwrites analysis with a handoff. The
// first leaking path is reported and the search stops.
func checkAcquirePaths(p *Pass, g *funcCFG, site acquireSite) {
	info := p.Pkg.Info
	// Locate the home block and statement index of the acquire.
	var home *cfgBlock
	homeIdx := -1
	g.eachReachable(func(blk *cfgBlock) {
		if home != nil {
			return
		}
		for i, st := range blk.stmts {
			if st == site.stmt {
				home, homeIdx = blk, i
				return
			}
		}
	})
	if home == nil {
		return // acquire in unreachable code; nothing to check
	}

	visited := make(map[*cfgBlock]bool)
	var leak func(blk *cfgBlock, from int) bool
	leak = func(blk *cfgBlock, from int) bool {
		for i := from; i < len(blk.stmts); i++ {
			st := blk.stmts[i]
			if consumesVar(info, blk, st, site.v) {
				return false // ownership left this function on this path
			}
			if reassignsVar(info, st, site.v) {
				return true // overwritten while still owned: the old object leaks
			}
		}
		if blk.panics {
			return false // crash path: the process dies, nothing enters steady state
		}
		if blk.exit {
			return true // reached an exit still owning the object
		}
		if len(blk.succs) == 0 {
			return false // dead end (e.g. infinite loop with no break): unobservable
		}
		for _, s := range blk.succs {
			if visited[s] {
				continue
			}
			visited[s] = true
			if leak(s, 0) {
				return true
			}
		}
		return false
	}
	if leak(home, homeIdx+1) {
		p.ReportfReason(site.call.Pos(), "pool-leak", "pooled object %s can leak: a path reaches a function exit without releasing or handing it off (expected %s or an ownership transfer on every exit)", site.v.Name(), poolRelease)
	}
}

// consumesVar reports whether executing st transfers ownership of v out
// of the current frame: v passed as a call argument (including its own
// Release), returned, stored through a field/index/deref or into a
// composite literal, sent on a channel, captured by a closure, or
// aliased to another variable. Uses that merely read through v
// (v.field, v.method(), v == nil) do not consume. For control statements
// that terminate a block, only the header expressions are scanned — the
// bodies live in successor blocks.
func consumesVar(info *types.Info, blk *cfgBlock, st ast.Stmt, v *types.Var) bool {
	last := len(blk.stmts) > 0 && blk.stmts[len(blk.stmts)-1] == st
	var roots []ast.Node
	if last {
		switch s := st.(type) {
		case *ast.IfStmt:
			if s.Cond != nil {
				roots = append(roots, s.Cond)
			}
		case *ast.ForStmt:
			if s.Cond != nil {
				roots = append(roots, s.Cond)
			}
		case *ast.RangeStmt:
			roots = append(roots, s.X)
		case *ast.SwitchStmt:
			if s.Tag != nil {
				roots = append(roots, s.Tag)
			}
		case *ast.TypeSwitchStmt:
			roots = append(roots, s.Assign)
		case *ast.SelectStmt:
			// comm clauses live in successor blocks
		default:
			roots = append(roots, st)
		}
	} else {
		roots = append(roots, st)
	}
	for _, root := range roots {
		consumed := false
		walkWithStack(root, func(n ast.Node, stack []ast.Node) {
			if consumed {
				return
			}
			id, ok := n.(*ast.Ident)
			if !ok || objOf(info, id) != types.Object(v) {
				return
			}
			if identConsumes(stack) {
				consumed = true
			}
		})
		if consumed {
			return true
		}
	}
	return false
}

// identConsumes classifies one use of the tracked identifier (the last
// stack element) as ownership-transferring or not.
func identConsumes(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		child := stack[i+1]
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.SelectorExpr:
			if parent.X == child {
				return false // v.field / v.method(): reading through v
			}
			return false
		case *ast.IndexExpr:
			return false // v[i] or x[v]: neither transfers the object
		case *ast.CallExpr:
			if parent.Fun == child {
				return false // v is the callee (a func-typed pooled obj: n/a)
			}
			return true // argument, including Release(v) and append(q, v)
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return true
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return true
		case *ast.UnaryExpr:
			return true // &v escapes
		case *ast.FuncLit:
			return true // captured by a closure
		case *ast.AssignStmt:
			// v on the RHS: stored or aliased somewhere.
			for _, rhs := range parent.Rhs {
				if containsNode(rhs, child) {
					return true
				}
			}
			return false
		case *ast.BinaryExpr:
			return false // comparisons and arithmetic read, not transfer
		case ast.Stmt:
			return false
		}
	}
	return false
}

// reassignsVar reports whether st writes a new value into v itself (not
// through it): plain `v = ...` or `v, x := ...`.
func reassignsVar(info *types.Info, st ast.Stmt, v *types.Var) bool {
	as, ok := st.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if objOf(info, id) == types.Object(v) {
				return true
			}
		}
	}
	return false
}
