package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runFixtures runs one check over fixture packages and checks its findings
// against "// want" comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract:
//
//	testdata/src/<importpath>/*.go
//
// A fixture line that should be flagged carries a trailing comment
//
//	x := rand.Intn(3) // want `rand\.Intn`
//
// holding one or more Go-quoted regular expressions, each of which must
// match a distinct finding reported on that line; findings on lines with
// no matching want pattern fail the test, as do want patterns with no
// matching finding.
//
// Fixture packages may import each other by the path of their directory
// under testdata/src — including stub packages that impersonate real
// repository packages (for example a stub "revnf/internal/core" declaring
// just the TwoPhase interface) — and may import anything else
// resolvable by the module's go tool (the standard library, or real
// repository packages). testdata/src takes precedence, exactly like the
// GOPATH the upstream harness fabricates.
func runFixtures(t *testing.T, check func(*typedPkg) []Finding, pkgPaths ...string) {
	t.Helper()
	imp, err := newFixtureImporter(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("fixtures: %v", err)
	}
	for _, path := range pkgPaths {
		p, err := imp.load(path)
		if err != nil {
			t.Fatalf("fixtures: load %q: %v", path, err)
		}
		findings := check(p)
		sortFindings(findings)
		checkExpectations(t, p, findings)
	}
}

// fixtureImporter resolves fixture packages from testdata/src and
// everything else through export data produced by the module's go tool.
type fixtureImporter struct {
	srcRoot  string
	fset     *token.FileSet
	external types.Importer
	cache    map[string]*typedPkg
	loading  map[string]bool
}

// newFixtureImporter scans the fixture tree for imports that testdata/src
// cannot satisfy and resolves their export data in one go list call.
func newFixtureImporter(srcRoot string) (*fixtureImporter, error) {
	fi := &fixtureImporter{
		srcRoot: srcRoot,
		fset:    token.NewFileSet(),
		cache:   make(map[string]*typedPkg),
		loading: make(map[string]bool),
	}
	ext, err := fi.externalImports()
	if err != nil {
		return nil, err
	}
	var listed []listedPackage
	if len(ext) > 0 {
		// The working directory of a test binary is its package directory,
		// which lies inside the module, so the go tool resolves both
		// standard library and module-internal import paths.
		listed, err = goList(".", ext...)
		if err != nil {
			return nil, err
		}
	}
	fi.external = newExportImporter(fi.fset, listed)
	return fi, nil
}

// externalImports parses every fixture file and returns the import paths
// that have no directory under testdata/src.
func (fi *fixtureImporter) externalImports() ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.Walk(fi.srcRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("parse %s: %v", path, err)
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if st, err := os.Stat(filepath.Join(fi.srcRoot, p)); err == nil && st.IsDir() {
				continue // fixture-local package
			}
			seen[p] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// load type-checks the fixture package at the given testdata/src-relative
// import path, memoized.
func (fi *fixtureImporter) load(path string) (*typedPkg, error) {
	if pkg, ok := fi.cache[path]; ok {
		return pkg, nil
	}
	if fi.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	fi.loading[path] = true
	defer delete(fi.loading, path)
	dir := filepath.Join(fi.srcRoot, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	pkg, err := typeCheck(fi.fset, fi, path, files)
	if err != nil {
		return nil, err
	}
	fi.cache[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: testdata/src first, export data after.
func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(fi.srcRoot, path)); err == nil && st.IsDir() {
		pkg, err := fi.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return fi.external.Import(path)
}

// expectation is one want pattern at a fixture line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts the want patterns of one fixture file, by line.
func parseWants(filename string) (map[int][]*expectation, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]*expectation)
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rest := strings.TrimSpace(m[1])
		for rest != "" {
			var quoted string
			switch rest[0] {
			case '"':
				end := strings.Index(rest[1:], `"`)
				if end < 0 {
					return nil, fmt.Errorf("%s:%d: unterminated want pattern", filename, i+1)
				}
				quoted = rest[:end+2]
			case '`':
				end := strings.Index(rest[1:], "`")
				if end < 0 {
					return nil, fmt.Errorf("%s:%d: unterminated want pattern", filename, i+1)
				}
				quoted = rest[:end+2]
			default:
				return nil, fmt.Errorf("%s:%d: malformed want pattern %q", filename, i+1, rest)
			}
			rest = strings.TrimSpace(rest[len(quoted):])
			pattern, err := strconv.Unquote(quoted)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: unquote %s: %v", filename, i+1, quoted, err)
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp: %v", filename, i+1, err)
			}
			out[i+1] = append(out[i+1], &expectation{re: re})
		}
	}
	return out, nil
}

// checkExpectations compares findings against the fixture's want comments.
func checkExpectations(t *testing.T, pkg *typedPkg, findings []Finding) {
	t.Helper()
	wants := make(map[string]map[int][]*expectation)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		w, err := parseWants(name)
		if err != nil {
			t.Fatalf("fixtures: %v", err)
		}
		wants[name] = w
	}
	for _, f := range findings {
		exps := wants[f.Position.Filename][f.Position.Line]
		found := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(f.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", f.Position, f.Message)
		}
	}
	for file, byLine := range wants {
		for line, exps := range byLine {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: no diagnostic matching %q", file, line, e.re)
				}
			}
		}
	}
}
