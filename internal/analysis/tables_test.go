package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// TestTablesNameTheTree holds the hand-kept tables to the module: every
// summary key names a type that some call from outside the type's package
// resolves to — the only calls the check reads a summary row for — and
// every aliased or canonical class but the abstract sched.mu names a
// sync.Mutex or sync.RWMutex field. A renamed type or mutex, or a row
// keyed to a type calls no longer resolve to, otherwise leaves a row that
// silently matches nothing.
func TestTablesNameTheTree(t *testing.T) {
	pkgs, err := packages("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	typeNames := make(map[string]bool)
	calls := make(map[string]int) // by receiver type, cross-package calls only
	mutexes := make(map[lockClass]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, _ := callee(p.Info, call); fn != nil {
					if named := receiverNamed(fn); named != nil && named.Obj().Pkg() != nil &&
						named.Obj().Pkg().Path() != p.Path {
						calls[named.Obj().Pkg().Path()+"."+named.Obj().Name()]++
					}
				}
				return true
			})
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			typeNames[p.Path+"."+name] = true
			named, _ := tn.Type().(*types.Named)
			st, ok := tn.Type().Underlying().(*types.Struct)
			if named == nil || !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if isSyncLocker(f.Type()) {
					mutexes[fieldClass(named, f.Name())] = true
				}
			}
		}
	}
	if len(typeNames) == 0 {
		t.Fatal("loaded no types; is the module root ../..?")
	}
	for key := range summary {
		switch {
		case !typeNames[key]:
			t.Errorf("summary key %s names no type in the module", key)
		case calls[key] == 0:
			t.Errorf("summary key %s matches no call from outside its package", key)
		}
	}
	for class := range aliases {
		if !mutexes[class] {
			t.Errorf("aliases key %s names no mutex field in the module", class)
		}
	}
	for _, class := range canonical {
		if class != schedMu && !mutexes[class] {
			t.Errorf("canonical class %s names no mutex field in the module", class)
		}
	}
}
