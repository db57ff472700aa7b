package analysis

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module in a temp dir: files maps
// relative paths to contents. Returns the module root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module loadtest\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPackagesNoTestFiles loads a package that has no *_test.go files at
// all — the everyday case for the checks' targets — and checks the
// full parse + type-check pipeline comes back populated.
func TestPackagesNoTestFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\n// Double doubles.\nfunc Double(x int) int { return 2 * x }\n",
	})
	pkgs, err := packages(dir, "./a")
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "loadtest/a" {
		t.Errorf("Path = %q, want %q", p.Path, "loadtest/a")
	}
	if len(p.Files) != 1 {
		t.Errorf("got %d files, want 1", len(p.Files))
	}
	if p.Types == nil || p.Types.Scope().Lookup("Double") == nil {
		t.Error("type-checked package missing Double")
	}
	if p.Info == nil || len(p.Info.Defs) == 0 {
		t.Error("Info.Defs empty; type-check info not collected")
	}
}

// TestPackagesStdlibOnlyImports exercises the export-data importer on a
// package whose entire dependency closure is the standard library: go
// list -export must surface export files for the deps and the importer
// must resolve them (no source for stdlib is ever parsed).
func TestPackagesStdlibOnlyImports(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"b/b.go": `package b

import (
	"fmt"
	"strings"
)

// Shout upper-cases and decorates s.
func Shout(s string) string { return fmt.Sprintf("%s!", strings.ToUpper(s)) }
`,
	})
	pkgs, err := packages(dir, "./...")
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d target packages, want 1 (stdlib deps must stay DepOnly)", len(pkgs))
	}
	p := pkgs[0]
	// The importer must have materialized real stdlib packages, not stubs:
	// strings.ToUpper's use resolves to an object owned by package strings.
	found := false
	for _, obj := range p.Info.Uses {
		if obj.Pkg() != nil && obj.Pkg().Path() == "strings" && obj.Name() == "ToUpper" {
			found = true
			break
		}
	}
	if !found {
		t.Error("strings.ToUpper not resolved through export data")
	}
}

// TestPackagesIgnoresTestFiles pins the loader contract that test files
// are never loaded: a package carrying *_test.go files yields only its
// GoFiles, so invariants are not enforced on tests.
func TestPackagesIgnoresTestFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"c/c.go":      "package c\n\nfunc C() int { return 1 }\n",
		"c/c_test.go": "package c\n\nimport \"testing\"\n\nfunc TestC(t *testing.T) { _ = C() }\n",
	})
	pkgs, err := packages(dir, "./c")
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if n := len(pkgs[0].Files); n != 1 {
		t.Errorf("got %d files, want 1 (c_test.go must not be loaded)", n)
	}
	for _, f := range pkgs[0].Files {
		if name := pkgs[0].Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file leaked into load: %s", name)
		}
	}
}

// TestPackagesTypeError feeds the loader a package that does not
// type-check. The contract is a diagnostic error naming the problem —
// never a panic, and never a half-populated package.
func TestPackagesTypeError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nfunc Broken() int { return \"not an int\" }\n",
	})
	pkgs, err := packages(dir, "./bad")
	if err == nil {
		t.Fatalf("Packages succeeded on a type-broken package: %+v", pkgs)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error does not identify the broken package: %v", err)
	}
}

// TestPackagesSyntaxError does the same for a parse failure.
func TestPackagesSyntaxError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"mangled/mangled.go": "package mangled\n\nfunc Unclosed( {\n",
	})
	if _, err := packages(dir, "./mangled"); err == nil {
		t.Fatal("Packages succeeded on a syntactically broken package")
	}
}

// TestGoListBadPattern pins the error path for a pattern matching
// nothing loadable.
func TestGoListBadPattern(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n",
	})
	if _, err := goList(dir, "./no/such/dir/..."); err == nil {
		t.Fatal("GoList succeeded on a nonexistent pattern")
	}
}

// TestCheckTypeError drives typeCheck directly with a self-contained file
// whose body fails the type checker, bypassing the go tool: the error
// must carry the "typecheck" stage and the import path.
func TestCheckTypeError(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "x.go")
	src := "package x\n\nvar V int = true\n"
	if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	_, err := typeCheck(fset, importer.Default(), "loadtest/x", []string{name})
	if err == nil {
		t.Fatal("typeCheck succeeded on a type-broken file")
	}
	if !strings.Contains(err.Error(), "typecheck") || !strings.Contains(err.Error(), "loadtest/x") {
		t.Errorf("error missing stage or path: %v", err)
	}
}
