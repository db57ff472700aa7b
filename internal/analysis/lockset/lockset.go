// Package lockset holds the concurrency-analysis utilities shared by the
// guardedby and lockorder analyzers: naming locks by the struct field that
// holds them (a "lock class"), recognizing acquisition and release calls,
// parsing "guarded by" field annotations, and resolving call targets for
// the same-package call-graph walks both analyzers perform.
//
// # Lock classes
//
// A lock class identifies one mutex by the field that holds it rather than
// by a runtime instance:
//
//	revnf/internal/serve.Engine.mu  one sync.Mutex field
//
// Class-level (instance-blind) reasoning is a deliberate approximation:
// it cannot distinguish two Engines locking each other's mutexes, but
// every lock in this repository is owned by exactly one long-lived value
// per daemon, so the field is the lock for all practical purposes.
//
// # Guard annotations
//
// A struct field whose access is protected by a sibling mutex field
// declares it in its doc or line comment:
//
//	slot int // guarded by mu
package lockset

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"revnf/internal/analysis/astq"
	"revnf/internal/analysis/framework"
)

// Mode is the acquisition mode of a lock operation.
type Mode int

// Acquisition modes, ordered by strength: a write acquisition licenses
// everything a read acquisition does.
const (
	// ModeNone means the lock is not held.
	ModeNone Mode = iota
	// ModeRead is the shared side of a sync.RWMutex (RLock).
	ModeRead
	// ModeWrite is exclusive: sync.Mutex.Lock or sync.RWMutex.Lock.
	ModeWrite
)

func (m Mode) String() string {
	switch m {
	case ModeRead:
		return "read"
	case ModeWrite:
		return "write"
	default:
		return "none"
	}
}

// Class names one lock by its owning field; see the package comment for
// the format.
type Class string

// lockMethod classifies the sync.Mutex/sync.RWMutex method set.
var lockMethod = map[string]struct {
	acquire bool
	mode    Mode
}{
	"Lock":    {acquire: true, mode: ModeWrite},
	"RLock":   {acquire: true, mode: ModeRead},
	"Unlock":  {acquire: false, mode: ModeWrite},
	"RUnlock": {acquire: false, mode: ModeRead},
}

// isSyncLocker reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	return astq.IsNamedType(t, "sync", "Mutex") || astq.IsNamedType(t, "sync", "RWMutex")
}

// LockOp describes one recognized mutex operation.
type LockOp struct {
	// Class is the lock operated on.
	Class Class
	// Acquire distinguishes Lock/RLock from Unlock/RUnlock.
	Acquire bool
	// Mode is ModeWrite for Lock/Unlock, ModeRead for RLock/RUnlock.
	Mode Mode
}

// AsLockOp recognizes a call as a sync.Mutex/sync.RWMutex operation on a
// classifiable lock and returns its description. Calls on locks with no
// class (local mutex variables, mutexes reached through arbitrary
// expressions) return ok=false: a lock that cannot be named cannot
// participate in class-level reasoning.
func AsLockOp(info *types.Info, call *ast.CallExpr) (LockOp, bool) {
	callee, recv := astq.MethodCallee(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return LockOp{}, false
	}
	m, ok := lockMethod[callee.Name()]
	if !ok {
		return LockOp{}, false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isSyncLocker(sig.Recv().Type()) {
		return LockOp{}, false
	}
	class, ok := ClassOf(info, recv)
	if !ok {
		return LockOp{}, false
	}
	return LockOp{Class: class, Acquire: m.acquire, Mode: m.mode}, true
}

// ClassOf names the lock held in expr (the x of x.Lock()). It recognizes
// field selectors and package-level variables. Locals and compound
// expressions have no class.
func ClassOf(info *types.Info, expr ast.Expr) (Class, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[x.Sel]
		v, ok := obj.(*types.Var)
		if !ok {
			return "", false
		}
		if v.IsField() {
			if sel, ok := info.Selections[x]; ok {
				if named := astq.Named(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
					return fieldClass(named.Obj().Pkg().Path(), named.Obj().Name(), v.Name()), true
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

func fieldClass(pkgPath, typeName, field string) Class {
	return Class(pkgPath + "." + typeName + "." + field)
}

func varClass(pkgPath, name string) Class {
	return Class(pkgPath + "." + name)
}

// FieldClass names the lock class of a struct field object directly (used
// to resolve guard annotations against the fields of the same struct).
func FieldClass(owner *types.Named, field string) Class {
	if owner == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return fieldClass(owner.Obj().Pkg().Path(), owner.Obj().Name(), field)
}

// Guard is one parsed "guarded by" annotation.
type Guard struct {
	// Owner is the struct type declaring both the guarded field and the
	// guard.
	Owner *types.Named
	// Field is the annotated (guarded) field.
	Field *types.Var
	// MutexField is the guard's field name within Owner.
	MutexField string
	// Class is the guard's lock class.
	Class Class
	// Pos locates the annotation (the field), for diagnostics.
	Pos ast.Node
}

var guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// ParseGuards scans every struct type declared in the pass's files for
// "guarded by <field>" annotations on field doc or line comments and
// resolves them to Guard records keyed by the guarded field object.
// Malformed annotations (a guard naming no sibling field, or naming a
// non-mutex) are reported through the pass and skipped.
func ParseGuards(pass *framework.Pass) map[*types.Var]*Guard {
	out := make(map[*types.Var]*Guard)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			parseStructGuards(pass, named, st, out)
			return true
		})
	}
	return out
}

func parseStructGuards(pass *framework.Pass, owner *types.Named, st *ast.StructType, out map[*types.Var]*Guard) {
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
			pass.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a field of %s", mutexName, owner.Obj().Name())
			continue
		}
		if !isSyncLocker(guardField.Type()) {
			pass.Reportf(field.Pos(), "guarded-by annotation names %s.%s, which is not a sync.Mutex/sync.RWMutex",
				owner.Obj().Name(), mutexName)
			continue
		}
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				out[v] = &Guard{
					Owner:      owner,
					Field:      v,
					MutexField: mutexName,
					Class:      FieldClass(owner, mutexName),
					Pos:        field,
				}
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

// FuncDecls maps every function and method declared in the pass (with a
// body) to its declaration, the substrate of the same-package call-graph
// walks.
func FuncDecls(pass *framework.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// CalleeOf resolves a call to its *types.Func whether it is a method call
// or a direct (possibly package-qualified) function call; nil for
// indirect calls through function values, conversions, and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn, _ := astq.MethodCallee(info, call); fn != nil {
		return fn
	}
	return astq.PkgFunc(info, call)
}

// ReceiverNamed returns the named type (behind any pointer) of a method's
// receiver, or nil for functions.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return astq.Named(sig.Recv().Type())
}

// MethodKey names a method as "<pkg>.<Type>.<Method>" for both concrete
// and interface receivers — the key format of lockorder's cross-package
// acquisition summaries. Functions return "<pkg>.<Func>".
func MethodKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if named := ReceiverNamed(fn); named != nil && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// BodyAcquires reports the strongest mode in which the function body
// directly acquires the given lock class, ignoring nothing: any Lock or
// RLock on the class anywhere in the body counts (a flow-insensitive
// under-approximation — "acquired somewhere" stands in for "held at the
// access", which is the convention the annotated code follows).
func BodyAcquires(info *types.Info, body *ast.BlockStmt, class Class) Mode {
	mode := ModeNone
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := AsLockOp(info, call)
		if !ok || !op.Acquire || op.Class != class {
			return true
		}
		if op.Mode > mode {
			mode = op.Mode
		}
		return true
	})
	return mode
}

// CallEdges returns every same-package function/method called from the
// body, with the call positions (used by both analyzers to build the
// package call graph).
func CallEdges(pass *framework.Pass, body *ast.BlockStmt) []CallSite {
	var out []CallSite
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := CalleeOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() != pass.Pkg {
			return true
		}
		out = append(out, CallSite{Callee: fn, Call: call})
		return true
	})
	return out
}

// CallSite is one resolved same-package call.
type CallSite struct {
	Callee *types.Func
	Call   *ast.CallExpr
}

// TrimPkg shortens a class name for diagnostics by dropping the common
// module prefix ("revnf/internal/serve.Engine.mu" → "serve.Engine.mu").
func TrimPkg(c Class) string {
	s := string(c)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
