// Package purepropose enforces that Propose methods of two-phase
// schedulers are side-effect free.
//
// Invariant: core.TwoPhaseScheduler requires Propose to leave scheduler
// state untouched — the competitive-ratio argument for the primal-dual
// algorithms assumes every dual-price (λ) mutation happens in serialized
// Commit order, and the sharded serve engine runs any number of Propose
// calls concurrently under only a read lock. A write that sneaks into
// Propose is simultaneously a data race and a break in the paper's
// analysis.
//
// The pass flags, inside any method named Propose whose receiver type
// implements core.TwoPhaseScheduler:
//
//   - assignments (including compound assignment, ++/--, and writes
//     through indexes such as s.lambda[j][t-1] = v) whose left-hand side
//     is rooted in the receiver;
//   - calls to the timeslot.Ledger mutators (ReserveAll, ReleaseAll and
//     their one-claim forms Reserve, ReserveWindow, ForceReserve, Release)
//     and the timeslot.Pool mutators (ReserveAll, ReleaseAll, Acquire,
//     Release — the refcounted shared-backup layer reserves ledger
//     capacity under the covers) — reserving capacity is the engine's
//     job, after arbitration;
//   - calls to the dual-price kernel's writers: dual.Table.Update and
//     Advance (the λ update and the window aging live in another package,
//     where the receiver-write rule cannot see them), and dual.ClearRing
//     on a ring rooted in the receiver;
//   - calls to same-package methods reachable through the receiver (for
//     example s.updateDuals(...)) that transitively do any of the above.
//
// Method calls that merely read, and calls into other packages (for
// example the mutex RLock/RUnlock pair or a guarded rng draw, both
// explicitly blessed by the core contract), are not flagged; the pass is
// a syntactic under-approximation, not an escape-proof sandbox.
//
// Observability carve-out: emitting a decision trace from Propose into an
// injected trace.Recorder (Sample/Record) is explicitly allowed — the
// core.TwoPhaseScheduler contract blesses it because traces never feed
// back into admission decisions. The pass accepts it naturally: the
// Recorder's methods belong to revnf/internal/trace, not the scheduler's
// package, so the transitive-mutation walk never descends into them, and
// trace-assembly helpers that write only locals are clean by the same
// rules as any other read-only helper.
package purepropose

import (
	"go/ast"
	"go/types"

	"revnf/internal/analysis/astq"
	"revnf/internal/analysis/framework"
)

// CorePkgPath and InterfaceName locate the two-phase contract; the
// analyzer is inert in packages that do not import it.
var (
	CorePkgPath   = "revnf/internal/core"
	InterfaceName = "TwoPhaseScheduler"
)

// MutatorSet is one package's API that Propose must never call.
type MutatorSet struct {
	// Methods lists the mutating methods per type name.
	Methods map[string]map[string]bool
	// Funcs lists package-level functions that write through their first
	// argument; a call is flagged when that argument is rooted in the
	// receiver (scratch on Propose's own stack is not scheduler state).
	Funcs map[string]bool
	// Why completes the diagnostic at a direct call; What describes the
	// mutation when it is reached through a same-package helper.
	Why, What string
}

// Mutators is the mutating API Propose must never reach, keyed by package
// path: the timeslot Ledger's reserve/release methods and the refcounted
// Pool's acquire/release methods (a Pool.Acquire reserves ledger rows
// under the covers), and the dual-price table's writers (the read side —
// Sum, At, Index, Contains, Row — stays allowed).
var Mutators = map[string]MutatorSet{
	"revnf/internal/timeslot": {
		Methods: map[string]map[string]bool{
			"Ledger": {"ReserveAll": true, "ReleaseAll": true, "Reserve": true, "ReserveWindow": true, "ForceReserve": true, "Release": true},
			"Pool":   {"ReserveAll": true, "ReleaseAll": true, "Acquire": true, "Release": true},
		},
		Why:  "reserving capacity is the engine's job after ledger arbitration",
		What: "mutates timeslot capacity state",
	},
	"revnf/internal/dual": {
		Methods: map[string]map[string]bool{
			"Table":  {"Update": true, "Advance": true},
			"Window": {"Advance": true},
		},
		Funcs: map[string]bool{"ClearRing": true},
		Why:   "all scheduler mutation belongs in Commit (serialized)",
		What:  "writes dual-price state",
	},
}

// mutatorCall reports whether the call is to one of Mutators' methods, or
// to one of its functions on a ring rooted in the receiver, returning the
// callee's qualified name and its package's set.
func (c *checker) mutatorCall(call *ast.CallExpr, recvVar *types.Var) (string, MutatorSet, bool) {
	if fn, _ := astq.MethodCallee(c.pass.TypesInfo, call); fn != nil {
		named := astq.Named(fn.Type().(*types.Signature).Recv().Type())
		if named == nil || named.Obj().Pkg() == nil {
			return "", MutatorSet{}, false
		}
		path, typeName := named.Obj().Pkg().Path(), named.Obj().Name()
		set := Mutators[path]
		return path + "." + typeName + "." + fn.Name(), set, set.Methods[typeName][fn.Name()]
	}
	fn := astq.PkgFunc(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return "", MutatorSet{}, false
	}
	set := Mutators[fn.Pkg().Path()]
	return fn.Pkg().Path() + "." + fn.Name(), set,
		set.Funcs[fn.Name()] && c.rootedInReceiver(call.Args[0], recvVar)
}

// Analyzer is the purepropose pass.
var Analyzer = &framework.Analyzer{
	Name: "purepropose",
	Doc:  "Propose methods of core.TwoPhaseScheduler implementations must not mutate scheduler or ledger state",
	Run:  run,
}

func run(pass *framework.Pass) error {
	corePkg := astq.ImportedPackage(pass.Pkg, CorePkgPath)
	if corePkg == nil && pass.Pkg.Path() != CorePkgPath {
		return nil
	}
	scope := pass.Pkg.Scope()
	if corePkg != nil {
		scope = corePkg.Scope()
	}
	obj := scope.Lookup(InterfaceName)
	if obj == nil {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	c := &checker{pass: pass, decls: methodDecls(pass), mutCache: make(map[*types.Func]*mutation)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Propose" || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !implements(recv.Type(), iface) {
				continue
			}
			c.checkPropose(fd)
		}
	}
	return nil
}

// implements reports whether T or *T satisfies the interface.
func implements(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// methodDecls maps every method's types.Func to its declaration, so the
// checker can walk transitive callees within the package.
func methodDecls(pass *framework.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// mutation describes why a method counts as state-mutating.
type mutation struct {
	what string // human description of the first mutation found
}

type checker struct {
	pass     *framework.Pass
	decls    map[*types.Func]*ast.FuncDecl
	mutCache map[*types.Func]*mutation
	visiting map[*types.Func]bool
}

// checkPropose reports every mutation reachable from one Propose body.
func (c *checker) checkPropose(fd *ast.FuncDecl) {
	recvVar := receiverVar(c.pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if c.rootedInReceiver(lhs, recvVar) {
					c.pass.Reportf(lhs.Pos(),
						"Propose writes receiver state; all scheduler mutation belongs in Commit (serialized)")
				}
			}
		case *ast.IncDecStmt:
			if c.rootedInReceiver(x.X, recvVar) {
				c.pass.Reportf(x.X.Pos(),
					"Propose writes receiver state; all scheduler mutation belongs in Commit (serialized)")
			}
		case *ast.CallExpr:
			c.checkCall(x, recvVar)
		}
		return true
	})
}

// checkCall flags the Mutators API and transitively mutating same-package
// methods called through the receiver.
func (c *checker) checkCall(call *ast.CallExpr, recvVar *types.Var) {
	if name, set, ok := c.mutatorCall(call, recvVar); ok {
		c.pass.Reportf(call.Pos(), "Propose calls %s; %s", name, set.Why)
		return
	}
	callee, recvExpr := astq.MethodCallee(c.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	// Same-package method reached through the receiver: follow it.
	if callee.Pkg() != c.pass.Pkg || recvVar == nil || !c.rootedInReceiver(recvExpr, recvVar) {
		return
	}
	if mut := c.mutates(callee); mut != nil {
		c.pass.Reportf(call.Pos(),
			"Propose calls %s, which %s; all scheduler mutation belongs in Commit (serialized)",
			callee.Name(), mut.what)
	}
}

// mutates reports whether the method (or anything it calls through its own
// receiver within this package) writes receiver state or calls the
// Mutators API. Results are memoized; cycles resolve to "no mutation" for the
// back edge, which is sound for this use because any real write on the
// cycle is found when its own frame is walked.
func (c *checker) mutates(fn *types.Func) *mutation {
	if mut, ok := c.mutCache[fn]; ok {
		return mut
	}
	if c.visiting == nil {
		c.visiting = make(map[*types.Func]bool)
	}
	if c.visiting[fn] {
		return nil
	}
	c.visiting[fn] = true
	defer delete(c.visiting, fn)
	fd := c.decls[fn]
	if fd == nil {
		c.mutCache[fn] = nil
		return nil
	}
	recvVar := receiverVar(c.pass, fd)
	var found *mutation
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if c.rootedInReceiver(lhs, recvVar) {
					found = &mutation{what: "writes receiver state"}
				}
			}
		case *ast.IncDecStmt:
			if c.rootedInReceiver(x.X, recvVar) {
				found = &mutation{what: "writes receiver state"}
			}
		case *ast.CallExpr:
			if _, set, ok := c.mutatorCall(x, recvVar); ok {
				found = &mutation{what: set.What}
				return true
			}
			callee, recvExpr := astq.MethodCallee(c.pass.TypesInfo, x)
			if callee == nil {
				return true
			}
			if callee.Pkg() == c.pass.Pkg && recvVar != nil && c.rootedInReceiver(recvExpr, recvVar) {
				if mut := c.mutates(callee); mut != nil {
					found = &mutation{what: "transitively " + mut.what + " (via " + callee.Name() + ")"}
				}
			}
		}
		return true
	})
	c.mutCache[fn] = found
	return found
}

// rootedInReceiver reports whether the expression's leftmost identifier is
// the method's receiver variable.
func (c *checker) rootedInReceiver(e ast.Expr, recvVar *types.Var) bool {
	if recvVar == nil {
		return false
	}
	root := astq.RootIdent(e)
	if root == nil {
		return false
	}
	obj := c.pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[root]
	}
	return obj == recvVar
}

// receiverVar returns the declared receiver variable, or nil for an
// anonymous receiver (which the body cannot reference).
func receiverVar(pass *framework.Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}
