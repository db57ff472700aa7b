package analysis

// The loader type-checks Go packages for the lock checks with the standard
// library alone. It shells out to `go list -export -deps -json`, which
// compiles every dependency into the build cache and reports the export
// data file per package, then parses the target packages from source and
// type-checks them with go/types using a gc-export-data importer — the
// same layering go/packages uses in LoadTypes mode.
//
// Only non-test files (GoFiles) are loaded: the lock invariants govern
// library code, and tests are exempt from them by design.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// typedPkg is one type-checked target package.
type typedPkg struct {
	// Path is the import path.
	Path string
	// Fset, Files, Types, Info are the parse and type-check results.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir and decodes the stream.
// The -export flag makes the go tool compile every listed package into the
// build cache and report the export data file location.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportIndex resolves import paths to gc export data files.
type exportIndex map[string]string

func buildIndex(pkgs []listedPackage) exportIndex {
	idx := make(exportIndex, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			idx[p.ImportPath] = p.Export
		}
		// ImportMap entries (vendoring, test variants) alias the source
		// spelling to the resolved package; record both spellings.
		for from, to := range p.ImportMap {
			if idx[from] == "" {
				if e := idx[to]; e != "" {
					idx[from] = e
				}
			}
		}
	}
	return idx
}

func (idx exportIndex) lookup(path string) (io.ReadCloser, error) {
	file, ok := idx[path]
	if !ok {
		return nil, fmt.Errorf("load: no export data for %q", path)
	}
	return os.Open(file)
}

// newExportImporter builds a go/types importer that reads compiler export
// data for every package in listed (typically the output of goList with
// -deps, so the whole dependency closure is covered).
func newExportImporter(fset *token.FileSet, listed []listedPackage) types.Importer {
	return importer.ForCompiler(fset, "gc", buildIndex(listed).lookup)
}

// packages loads and type-checks every target package (the non-DepOnly
// packages matched by patterns) relative to dir. Dependencies, including
// the standard library, are consumed as compiler export data, so loading
// is fast and the target sources are the only code parsed.
func packages(dir string, patterns ...string) ([]*typedPkg, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, listed)
	var out []*typedPkg
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		var files []string
		for _, name := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, name))
		}
		pkg, err := typeCheck(fset, imp, lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// typeCheck parses the given source files and type-checks them as the package
// at the given import path, resolving imports through imp.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*typedPkg, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %v", path, err)
	}
	return &typedPkg{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
