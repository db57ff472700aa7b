package lockorder

import (
	"go/types"
	"testing"

	"revnf/internal/analysis/astq"
	"revnf/internal/analysis/load"
	"revnf/internal/analysis/lockset"
)

// TestTablesNameTheTree holds the hand-kept tables to the module: every
// summary key names a type, and every aliased or canonical class but the
// abstract sched.mu names a sync.Mutex or sync.RWMutex field. A renamed
// type or mutex otherwise leaves a row that silently matches nothing.
func TestTablesNameTheTree(t *testing.T) {
	pkgs, err := load.Packages("../../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	typeNames := make(map[string]bool)
	mutexes := make(map[lockset.Class]bool)
	for _, p := range pkgs {
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
				if astq.IsNamedType(f.Type(), "sync", "Mutex") || astq.IsNamedType(f.Type(), "sync", "RWMutex") {
					mutexes[lockset.FieldClass(named, f.Name())] = true
				}
			}
		}
	}
	if len(typeNames) == 0 {
		t.Fatal("loaded no types; is the module root ../../..?")
	}
	for key := range summary {
		if !typeNames[key] {
			t.Errorf("summary key %s names no type in the module", key)
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
