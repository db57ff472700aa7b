// Package astq holds small AST/type query helpers shared by the guardedby
// and lockorder analyzers.
package astq

import (
	"go/ast"
	"go/types"
)

// RootIdent returns the leftmost identifier of a selector/index/star/paren
// chain (for s.lambda[j][t-1] it returns s), or nil when the expression is
// not rooted in an identifier.
func RootIdent(e ast.Expr) *ast.Ident {
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

// Named dereferences pointers and returns the named type, or nil.
func Named(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	n := Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// PkgFunc resolves a call to a package-level function and returns it, or
// nil when the call is not a direct package-level function call (method
// calls and local closures return nil).
func PkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// MethodCallee resolves a call to the *types.Func of its method, or nil
// when the call is not a method call. The second result is the receiver
// expression (the x in x.M(...)).
func MethodCallee(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, nil
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return nil, nil
	}
	return fn, sel.X
}
