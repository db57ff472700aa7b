// Package analysis holds the two lock checks the root TestLockDiscipline
// runs over every package of the module:
//
//   - guardedby: a field annotated "guarded by mu" is touched only on call
//     paths that hold mu;
//   - lockorder: nested acquisitions follow the canonical lock order of
//     DESIGN.md §12.3, and no package takes two locks in both orders.
//
// Both are plain functions over one type-checked package, which the loader
// (load.go) builds from `go list -export` and the compiler's export data,
// so the module needs nothing outside the standard library. A finding is
// fixed, or the code is restructured so the check can see why it is safe:
// there is no suppression comment.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
)

// Finding is one violation: where, what, and which check found it.
type Finding struct {
	Position token.Position
	Message  string
	Check    string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Check)
}

// LockDiscipline type-checks every package of the module rooted at dir and
// returns what guardedby and lockorder find in them, sorted by position.
func LockDiscipline(dir string) ([]Finding, error) {
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not a module root: %v", dir, err)
	}
	pkgs, err := packages(dir, "./...")
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, p := range pkgs {
		out = append(out, guardedby(p)...)
		out = append(out, lockorder(p)...)
	}
	sortFindings(out)
	return out, nil
}

// reportf returns a function that appends one finding of the named check
// on p to *out.
func (p *typedPkg) reportf(check string, out *[]Finding) func(pos token.Pos, format string, args ...any) {
	return func(pos token.Pos, format string, args ...any) {
		*out = append(*out, Finding{Position: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...), Check: check})
	}
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Check < b.Check
	})
}

// rootIdent returns the leftmost identifier of a selector/index/star/paren
// chain (for s.lambda[j][t-1] it returns s), or nil when the expression is
// not rooted in an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedOf dereferences pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// callee resolves a call to the function or method it calls, with the
// receiver expression (the x of x.M(...)) for a method call. Calls through
// function values, method expressions, conversions and builtins resolve
// to nil.
func callee(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				return fn, fun.X
			}
			return nil, nil
		}
		id = fun.Sel // package-qualified
	default:
		return nil, nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
		return fn, nil
	}
	return nil, nil
}
