package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// What guardedby and lockorder share: naming locks by the struct field
// that holds them, recognizing acquisition and release calls, parsing
// "guarded by" annotations, and the same-package call-graph walks.

// lockMode is the acquisition mode of a lock operation, ordered by
// strength: a write acquisition licenses everything a read acquisition
// does.
type lockMode int

const (
	// modeNone means the lock is not held.
	modeNone lockMode = iota
	// modeRead is the shared side of a sync.RWMutex (RLock).
	modeRead
	// modeWrite is exclusive: sync.Mutex.Lock or sync.RWMutex.Lock.
	modeWrite
)

// lockClass names one lock by the field that holds it rather than by a
// runtime instance:
//
//	revnf/internal/serve.Engine.mu  one sync.Mutex field
//
// or by a package-level variable ("<pkg>.<var>"). Class-level
// (instance-blind) reasoning is a deliberate approximation: it cannot
// distinguish two Engines locking each other's mutexes, but every lock in
// this repository is owned by exactly one long-lived value per daemon, so
// the field is the lock for all practical purposes.
type lockClass string

// lockMethod classifies the sync.Mutex/sync.RWMutex method set.
var lockMethod = map[string]struct {
	acquire bool
	mode    lockMode
}{
	"Lock":    {acquire: true, mode: modeWrite},
	"RLock":   {acquire: true, mode: modeRead},
	"Unlock":  {acquire: false, mode: modeWrite},
	"RUnlock": {acquire: false, mode: modeRead},
}

// isSyncLocker reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// lockOp describes one recognized mutex operation.
type lockOp struct {
	// class is the lock operated on.
	class lockClass
	// acquire distinguishes Lock/RLock from Unlock/RUnlock.
	acquire bool
	// mode is modeWrite for Lock/Unlock, modeRead for RLock/RUnlock.
	mode lockMode
}

// asLockOp recognizes a call as a sync.Mutex/sync.RWMutex operation on a
// classifiable lock and returns its description. Calls on locks with no
// class (local mutex variables, mutexes reached through arbitrary
// expressions) return ok=false: a lock that cannot be named cannot
// participate in class-level reasoning.
func asLockOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	fn, recv := callee(info, call)
	if fn == nil || recv == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	m, ok := lockMethod[fn.Name()]
	if !ok || !isSyncLocker(fn.Type().(*types.Signature).Recv().Type()) {
		return lockOp{}, false
	}
	class, ok := classOf(info, recv)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{class: class, acquire: m.acquire, mode: m.mode}, true
}

// classOf names the lock held in expr (the x of x.Lock()). It recognizes
// field selectors and package-level variables. Locals and compound
// expressions have no class.
func classOf(info *types.Info, expr ast.Expr) (lockClass, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[x.Sel]
		v, ok := obj.(*types.Var)
		if !ok {
			return "", false
		}
		if v.IsField() {
			if sel, ok := info.Selections[x]; ok {
				if c := fieldClass(namedOf(sel.Recv()), v.Name()); c != "" {
					return c, true
				}
			}
			return "", false
		}
		// Package-qualified variable (pkg.Mu).
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return varClass(v.Pkg().Path(), v.Name()), true
		}
		return "", false
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "", false // local variable: no class
		}
		return varClass(v.Pkg().Path(), v.Name()), true
	default:
		return "", false
	}
}

// fieldClass names the lock class of a struct field, "" when the owner
// is not a named type of some package.
func fieldClass(owner *types.Named, field string) lockClass {
	if owner == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return lockClass(owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + field)
}

func varClass(pkgPath, name string) lockClass {
	return lockClass(pkgPath + "." + name)
}

// guard is one parsed "guarded by" annotation.
type guard struct {
	// owner is the struct type declaring both the guarded field and the
	// guard.
	owner *types.Named
	// mutexField is the guard's field name within owner.
	mutexField string
	// class is the guard's lock class.
	class lockClass
}

var guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// parseGuards scans every struct type declared in p's files for
// "guarded by <field>" annotations on field doc or line comments and
// resolves them to guard records keyed by the guarded field object.
// Malformed annotations (a guard naming no sibling field, or naming a
// non-mutex) are reported and skipped.
func parseGuards(p *typedPkg, report func(token.Pos, string, ...any)) map[*types.Var]*guard {
	out := make(map[*types.Var]*guard)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			parseStructGuards(p, report, named, st, out)
			return true
		})
	}
	return out
}

func parseStructGuards(p *typedPkg, report func(token.Pos, string, ...any), owner *types.Named, st *ast.StructType, out map[*types.Var]*guard) {
	under, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return
	}
	fieldByName := make(map[string]*types.Var, under.NumFields())
	for i := 0; i < under.NumFields(); i++ {
		f := under.Field(i)
		fieldByName[f.Name()] = f
	}
	for _, field := range st.Fields.List {
		mutexName := guardAnnotation(field)
		if mutexName == "" {
			continue
		}
		guardField, ok := fieldByName[mutexName]
		if !ok {
			report(field.Pos(), "guarded-by annotation names %q, which is not a field of %s", mutexName, owner.Obj().Name())
			continue
		}
		if !isSyncLocker(guardField.Type()) {
			report(field.Pos(), "guarded-by annotation names %s.%s, which is not a sync.Mutex/sync.RWMutex",
				owner.Obj().Name(), mutexName)
			continue
		}
		for _, name := range field.Names {
			if v, ok := p.Info.Defs[name].(*types.Var); ok {
				out[v] = &guard{owner: owner, mutexField: mutexName, class: fieldClass(owner, mutexName)}
			}
		}
	}
}

// guardAnnotation extracts the guard's name from a field's doc or line
// comment, preferring the line comment (closest to the field); "" when
// neither carries a "guarded by".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// funcDecls maps every function and method declared in p (with a body)
// to its declaration, the substrate of the same-package call-graph walks.
func funcDecls(p *typedPkg) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// receiverNamed returns the named type (behind any pointer) of a method's
// receiver, or nil for functions.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// methodKey names a method as "<pkg>.<Type>.<Method>" for both concrete
// and interface receivers — the key format of lockorder's cross-package
// acquisition summaries. Functions return "<pkg>.<Func>".
func methodKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if named := receiverNamed(fn); named != nil && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// bodyAcquires reports the strongest mode in which the function body
// directly acquires the given lock class, ignoring nothing: any Lock or
// RLock on the class anywhere in the body counts (a flow-insensitive
// under-approximation — "acquired somewhere" stands in for "held at the
// access", which is the convention the annotated code follows).
func bodyAcquires(info *types.Info, body *ast.BlockStmt, class lockClass) lockMode {
	mode := modeNone
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := asLockOp(info, call)
		if !ok || !op.acquire || op.class != class {
			return true
		}
		if op.mode > mode {
			mode = op.mode
		}
		return true
	})
	return mode
}

// callEdges returns every same-package function or method called from
// the body (guardedby's call graph).
func callEdges(p *typedPkg, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, _ := callee(p.Info, call); fn != nil && fn.Pkg() == p.Types {
			out = append(out, fn)
		}
		return true
	})
	return out
}

// trimPkg shortens a class name for diagnostics by dropping the common
// module prefix ("revnf/internal/serve.Engine.mu" → "serve.Engine.mu").
func trimPkg(c lockClass) string {
	s := string(c)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
