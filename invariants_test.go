package revnf_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"revnf/internal/analysis"
)

// deterministicPkgs are the packages, by directory, in which slot time is
// the only time: a wall-clock read there makes a decision depend on the
// machine, and the golden traces stop replaying. The serve layer's clock,
// the experiments' timers and the commands read the wall clock freely.
var deterministicPkgs = map[string]bool{
	"internal/onsite": true, "internal/offsite": true, "internal/shared": true,
	"internal/dual": true, "internal/baseline": true, "internal/chain": true,
	"internal/simulate": true, "internal/core": true, "internal/timeslot": true,
	"internal/trace": true, "internal/wire": true, "internal/chaos": true,
	"internal/repair": true, "internal/slo": true,
}

// randAllowed are the math/rand and math/rand/v2 names library code may
// use: the constructors of a seeded generator and the types that carry
// one. Every other name draws from the process-wide source.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// atomicTypes are sync/atomic's types; its other names are the functions
// that make a plain field atomic in one place and leave it plain in others.
var atomicTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true, "Uint64": true,
	"Uintptr": true, "Pointer": true, "Value": true,
}

// floatNames are the value names whose floats accumulate rounding error
// along the admission pipeline: revenue sums, reliability products and
// payments. Two mathematically equal revenues can differ in the last ulp
// by summation order, so they compare through core.FloatEq or an explicit
// tolerance, never ==/!=.
var floatNames = regexp.MustCompile(`(?i)revenue|reliab|payment`)

// floatName returns the first identifier in e that floatNames matches, or "".
func floatName(e ast.Expr) string {
	var found string
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && found == "" && floatNames.MatchString(id.Name) {
			found = id.Name
		}
		return found == ""
	})
	return found
}

// sourceViolations returns one line per break of rule ("rand", "walltime",
// "atomic" or "float") in file name, a slash path from the module root.
// Commands, examples and test data own their seeds and clocks and are
// exempt from every rule but "float". A package qualifier is an
// identifier go/parser leaves unresolved, so a local variable named like
// an import is not mistaken for it.
func sourceViolations(fset *token.FileSet, name string, f *ast.File, rule string) []string {
	if rule != "float" && (strings.HasPrefix(name, "cmd/") || strings.HasPrefix(name, "examples/") ||
		strings.HasPrefix(name, "testdata/") || strings.Contains(name, "/testdata/")) {
		return nil
	}
	dir := path.Dir(name)
	imports := make(map[string]string) // local name → import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := path.Base(p)
		if p == "math/rand/v2" {
			local = "rand"
		}
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = p
	}
	qualifier := func(e ast.Expr) string {
		if id, ok := e.(*ast.Ident); ok && id.Obj == nil {
			return imports[id.Name]
		}
		return ""
	}
	var out []string
	report := func(r string, n ast.Node, format string, args ...any) {
		if r == rule {
			out = append(out, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), fmt.Sprintf(format, args...)))
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				id := floatName(n.X)
				if id == "" {
					id = floatName(n.Y)
				}
				if id != "" {
					report("float", n, "exact comparison (%s) on %s; compare through core.FloatEq or a tolerance", n.Op, id)
				}
			}
		case *ast.SelectorExpr:
			switch sel := n.Sel.Name; qualifier(n.X) {
			case "math/rand", "math/rand/v2":
				if !randAllowed[sel] {
					report("rand", n, "global rand.%s breaks reproducibility; draw from an injected *rand.Rand", sel)
				}
			case "time":
				if deterministicPkgs[dir] && (sel == "Now" || sel == "Since" || sel == "Until" || sel == "Tick") {
					report("walltime", n, "time.%s in deterministic package %s; slot time comes from the engine clock", sel, dir)
				}
			case "sync/atomic":
				if !atomicTypes[sel] {
					report("atomic", n, "atomic.%s makes a plain field atomic in one place only; declare it with a sync/atomic type", sel)
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if lit, ok := rhs.(*ast.CompositeLit); ok {
					typ := lit.Type
					if ix, ok := typ.(*ast.IndexExpr); ok { // atomic.Pointer[T]{}
						typ = ix.X
					}
					if sel, ok := typ.(*ast.SelectorExpr); ok && qualifier(sel.X) == "sync/atomic" {
						report("atomic", n, "assigning atomic.%s{} resets the word without its method set", sel.Sel.Name)
					}
				}
			}
		}
		return true
	})
	return out
}

// checkModule holds every non-test file of the module outside testdata/
// to rule and returns the directories it walked.
func checkModule(t *testing.T, rule string) map[string]bool {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, err := os.Stat(filepath.Join(p, "go.mod"))
			if p != "." && (err == nil || strings.ContainsAny(d.Name()[:1], "._") || d.Name() == "testdata") {
				return filepath.SkipDir // another module (benchmark/), or a directory go build skips
			}
			return nil
		}
		name := filepath.ToSlash(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		seen[path.Dir(name)] = true
		for _, v := range sourceViolations(fset, name, f, rule) {
			t.Error(v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 30 {
		t.Fatalf("walked %d packages; is the test running from the module root?", len(seen))
	}
	return seen
}

// TestNoGlobalRand: library code never draws from the process-wide
// math/rand or math/rand/v2 source.
func TestNoGlobalRand(t *testing.T) { checkModule(t, "rand") }

// TestNoWallClock: the deterministic packages never read the wall clock.
func TestNoWallClock(t *testing.T) {
	seen := checkModule(t, "walltime")
	for dir := range deterministicPkgs {
		if !seen[dir] {
			t.Errorf("deterministic package %s has no source file; update deterministicPkgs", dir)
		}
	}
}

// TestNoAtomicFunctions: no sync/atomic package function and no atomic
// reset; go vet's copylocks check keeps an atomic value from being copied.
func TestNoAtomicFunctions(t *testing.T) { checkModule(t, "atomic") }

// TestNoFloatEquality: no ==/!= on a revenue, reliability or payment
// value, commands and examples included.
func TestNoFloatEquality(t *testing.T) { checkModule(t, "float") }

// TestLockDiscipline type-checks every package of the module and runs the
// two lock checks over it: guardedby (a field annotated "guarded by mu"
// is touched only with mu held) and lockorder (nested acquisitions follow
// the canonical order of DESIGN.md §12.3). Both see every path, where a
// -race run sees only the interleavings it samples.
func TestLockDiscipline(t *testing.T) {
	findings, err := analysis.LockDiscipline(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

func TestSourceViolationsRules(t *testing.T) {
	for _, tc := range []struct{ name, file, src, rule string }{ // rule "" is a clean file
		{"aliased global rand", "internal/onsite/a.go",
			`import mrand "math/rand"; func f() int { return mrand.Intn(3) }`, "rand"},
		{"global rand v2", "internal/workload/a.go",
			`import "math/rand/v2"; func f() int { return rand.IntN(3) }`, "rand"},
		{"wall clock in slo", "internal/slo/a.go",
			`import "time"; func f(t time.Time) time.Duration { return time.Since(t) }`, "walltime"},
		{"atomic function", "internal/serve/a.go",
			`import "sync/atomic"; type s struct{ n int64 }; func f(x *s) { atomic.AddInt64(&x.n, 1) }`, "atomic"},
		{"atomic reset", "internal/serve/a.go",
			`import "sync/atomic"; type s struct{ n atomic.Int64 }; func f(x *s) { x.n = atomic.Int64{} }`, "atomic"},
		{"seeded generator", "internal/workload/a.go",
			`import "math/rand"; func f() *rand.Rand { return rand.New(rand.NewSource(1)) }`, ""},
		{"injected generator", "internal/baseline/a.go",
			`import "math/rand"; func f(r *rand.Rand) int { return r.Intn(3) }`, ""},
		{"local named time", "internal/onsite/a.go",
			`import "time"; type clock struct{}; func (clock) Now() int { return 0 }
			func f(d time.Duration) int { time := clock{}; return time.Now() + int(d) }`, ""},
		{"wall clock in serve", "internal/serve/a.go",
			`import "time"; func f() time.Time { return time.Now() }`, ""},
		{"revenue equality", "internal/offline/a.go",
			`type s struct{ Revenue, UpperBound float64 }; func f(x *s) float64 { if x.Revenue == 0 { return 0 }; return x.UpperBound }`, "float"},
		{"payment in a command", "cmd/revnfload/a.go",
			`func f(payment float64) bool { return payment != 0 }`, "float"},
		{"reliability tolerance", "examples/failover/a.go",
			`import "math"; func f(reliab, want float64) bool { return math.Abs(reliab-want) <= 1e-9 }`, ""},
		{"commands exempt", "cmd/revnfd/a.go",
			`import ("math/rand"; "sync/atomic"; "time"); var n int64
			func f() { _ = rand.Intn(3); atomic.AddInt64(&n, 1); _ = time.Now() }`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, tc.file, "package p; "+tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rule := range []string{"rand", "walltime", "atomic", "float"} {
				if got := sourceViolations(fset, tc.file, f, rule); (len(got) > 0) != (rule == tc.rule) {
					t.Errorf("rule %s: flagged %q, want flagged = %v", rule, got, rule == tc.rule)
				}
			}
		})
	}
}
