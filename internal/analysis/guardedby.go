package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// guardedby enforces "guarded by" field annotations on p: every read
// or write of an annotated struct field must happen on a call path that
// acquires the named mutex.
//
// Invariant: the serving stack's shared state — the engine's books, the
// slot ledger rows, the dual-price vectors, the trace ring, the SLO and
// repair accounts — is protected by a documented mutex per field. PRs 2–7
// recorded that discipline in prose comments ("caller holds e.mu"); this
// check enforces it, because the admission guarantees (serialized
// Commit order, conservation-safe ledger) are only as good as the locking
// that implements them, and `-race` soaks only sample the interleavings a
// static check covers exhaustively.
//
// A field opts in with a doc or line comment:
//
//	slot int // guarded by mu
//
// where the guard is a sibling sync.Mutex/sync.RWMutex field. For every
// function in the package, the check computes the mode in which the guard
// is held:
//
//   - a function that calls guard.Lock() holds it in write mode, one that
//     calls guard.RLock() in read mode (flow-insensitive: "acquired
//     somewhere in the body" stands in for "held at the access");
//   - a function that does not acquire the guard inherits the weakest
//     mode among its same-package callers (the xxxLocked helper
//     convention) — computed as a greatest fixpoint over the call graph,
//     so helpers reachable only from lock holders are accepted, and a
//     single unlocked caller taints the whole path;
//   - a function with no in-package callers and no acquisition holds
//     nothing: exported entry points must lock for themselves.
//
// Reads require at least read mode; writes require write mode — writing
// under an RLock is flagged as its own diagnostic, since two such writers
// race each other despite both "holding the lock".
//
// Accesses through a value freshly built in the same function from a
// composite literal (the constructor idiom: e := &Engine{...}; e.f = x)
// are exempt: an unpublished value has no concurrent observers.
func guardedby(p *typedPkg) []Finding {
	var out []Finding
	report := p.reportf("guardedby", &out)
	guards := parseGuards(p, report)
	if len(guards) == 0 {
		return out
	}
	decls := funcDecls(p)
	callers := reverseCallGraph(p, decls)

	// One holder-mode fixpoint per distinct guard class.
	classes := make(map[lockClass]bool)
	for _, g := range guards {
		classes[g.class] = true
	}
	modes := make(map[lockClass]map[*types.Func]lockMode, len(classes))
	for class := range classes {
		modes[class] = holderModes(p, decls, callers, class)
	}

	for fn, fd := range decls {
		checkBody(p, report, fn, fd, guards, modes)
	}
	return out
}

// reverseCallGraph maps each declared function to the set of same-package
// functions that call it.
func reverseCallGraph(p *typedPkg, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]map[*types.Func]bool {
	callers := make(map[*types.Func]map[*types.Func]bool)
	for caller, fd := range decls {
		for _, fn := range callEdges(p, fd.Body) {
			if _, declared := decls[fn]; !declared {
				continue
			}
			set := callers[fn]
			if set == nil {
				set = make(map[*types.Func]bool)
				callers[fn] = set
			}
			set[caller] = true
		}
	}
	return callers
}

// holderModes computes, for one guard class, the mode in which each
// function holds the guard: its own strongest acquisition if it has one,
// otherwise the weakest mode among its callers (greatest fixpoint,
// starting from the optimistic modeWrite and lowering until stable).
// Functions nobody in the package calls, and that do not acquire, hold
// nothing.
func holderModes(p *typedPkg, decls map[*types.Func]*ast.FuncDecl, callers map[*types.Func]map[*types.Func]bool, class lockClass) map[*types.Func]lockMode {
	direct := make(map[*types.Func]lockMode, len(decls))
	modes := make(map[*types.Func]lockMode, len(decls))
	for fn, fd := range decls {
		direct[fn] = bodyAcquires(p.Info, fd.Body, class)
		if direct[fn] != modeNone {
			modes[fn] = direct[fn]
		} else {
			modes[fn] = modeWrite // optimistic start; lowered below
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range decls {
			if direct[fn] != modeNone {
				continue
			}
			inherited := modeNone
			if cs := callers[fn]; len(cs) > 0 {
				inherited = modeWrite
				for c := range cs {
					if modes[c] < inherited {
						inherited = modes[c]
					}
				}
			}
			if inherited < modes[fn] {
				modes[fn] = inherited
				changed = true
			}
		}
	}
	return modes
}

// checkBody flags guarded-field accesses in one function against the
// holder modes computed for its guards.
func checkBody(p *typedPkg, report func(token.Pos, string, ...any), fn *types.Func, fd *ast.FuncDecl, guards map[*types.Var]*guard, modes map[lockClass]map[*types.Func]lockMode) {
	fresh := freshLocals(p, fd, guards)
	writes := writeSelectors(p, fd.Body, guards)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		g, ok := guards[v]
		if !ok {
			return true
		}
		if root := rootIdent(sel.X); root != nil {
			if obj := p.Info.Uses[root]; obj != nil && fresh[obj] {
				return true // unpublished constructor-local value
			}
		}
		have := modes[g.class][fn]
		if writes[sel] {
			switch have {
			case modeNone:
				report(sel.Pos(), "writes %s.%s without holding %s (field is marked 'guarded by %s')",
					g.owner.Obj().Name(), v.Name(), trimPkg(g.class), g.mutexField)
			case modeRead:
				report(sel.Pos(), "writes %s.%s under the read lock of %s; writes require the write lock",
					g.owner.Obj().Name(), v.Name(), trimPkg(g.class))
			}
			return true
		}
		if have == modeNone {
			report(sel.Pos(), "reads %s.%s without holding %s (field is marked 'guarded by %s')",
				g.owner.Obj().Name(), v.Name(), trimPkg(g.class), g.mutexField)
		}
		return true
	})
}

// writeSelectors returns the guarded-field selectors written by the body:
// the selector at the root of an assignment LHS, an ++/-- operand, or an
// address-of operand (taking the address may publish a write path, so it
// is conservatively a write).
func writeSelectors(p *typedPkg, body *ast.BlockStmt, guards map[*types.Var]*guard) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		if sel, ok := rootSelector(e); ok {
			if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok {
				if _, guarded := guards[v]; guarded {
					out[sel] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		}
		return true
	})
	return out
}

// rootSelector unwraps index/star/paren chains and returns the outermost
// selector: for s.lambda[j][t] it returns the s.lambda selector.
func rootSelector(e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x, true
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// freshLocals finds local variables initialized in this function from a
// composite literal of a guard-owning struct type (e := &Engine{...}):
// accesses through them are construction-time and exempt.
func freshLocals(p *typedPkg, fd *ast.FuncDecl, guards map[*types.Var]*guard) map[types.Object]bool {
	owners := make(map[*types.Named]bool)
	for _, g := range guards {
		owners[g.owner] = true
	}
	out := make(map[types.Object]bool)
	record := func(name *ast.Ident, rhs ast.Expr) {
		if rhs == nil || name.Name == "_" {
			return
		}
		if !isOwnerLiteral(p.Info, rhs, owners) {
			return
		}
		if obj := p.Info.Defs[name]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					record(id, x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				return true
			}
			for i, name := range x.Names {
				record(name, x.Values[i])
			}
		}
		return true
	})
	return out
}

// isOwnerLiteral reports whether the expression is a composite literal
// (optionally behind &) of one of the guard-owning types.
func isOwnerLiteral(info *types.Info, e ast.Expr, owners map[*types.Named]bool) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	return named != nil && owners[named]
}
