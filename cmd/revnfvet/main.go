// Command revnfvet is the multichecker for the repository's invariant
// suite (internal/analysis): it loads the packages matched by its
// arguments, runs every registered analyzer, and prints one line per
// finding. A non-empty finding set exits 1, so scripts/check.sh and CI can
// gate on it.
//
// The suite has three passes, floateq, guardedby and lockorder: the rules
// no toolchain check or test holds. The other determinism and atomicity
// rules are held by checks the repository runs anyway: no global
// math/rand by TestNoGlobalRand, no wall-clock read in the deterministic
// packages by TestNoWallClock and no sync/atomic package function by
// TestNoAtomicFunctions (invariants_test.go at the module root), no copy
// of an atomic value by go vet's copylocks check, and a side-effect-free
// Propose by TestProposeIsPure (lockstep_test.go). DESIGN.md §7 says
// which check holds which rule.
//
// Usage:
//
//	go run ./cmd/revnfvet ./...          # whole tree (what check.sh runs)
//	go run ./cmd/revnfvet -list          # show registered analyzers
//	go run ./cmd/revnfvet -run floateq,lockorder ./internal/...
//	go run ./cmd/revnfvet -json ./...    # findings as a JSON array
//
// -json prints the findings as one JSON array of
// {file, line, column, analyzer, message} objects (empty array for a
// clean tree) instead of the line-per-finding text form; the exit code
// contract is unchanged, so CI can both gate on the exit status and
// archive the machine-readable report.
//
// Test files are never loaded: the invariants govern library code, and
// tests (golden traces pinning exact floats, deadline loops on time.Now)
// are exempt by design. Individual non-test lines opt out with a
// "//lint:allow <analyzer>" comment on, or directly above, the flagged
// line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"revnf/internal/analysis"
	"revnf/internal/analysis/framework"
	"revnf/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("revnfvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	only := fs.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	asJSON := fs.Bool("json", false, "print findings as a JSON array instead of text lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}
	analyzers := analysis.All()
	if *only != "" {
		analyzers = analysis.ByName(strings.Split(*only, ",")...)
		if analyzers == nil {
			fmt.Fprintf(stderr, "revnfvet: unknown analyzer in -run=%s\n", *only)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "revnfvet: %v\n", err)
		return 2
	}
	units := make([]*framework.Unit, 0, len(pkgs))
	for _, p := range pkgs {
		units = append(units, &framework.Unit{Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info})
	}
	findings, err := framework.Run(units, analyzers)
	if *asJSON {
		if jerr := writeJSON(stdout, findings); jerr != nil {
			fmt.Fprintf(stderr, "revnfvet: %v\n", jerr)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "revnfvet: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "revnfvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable report row.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the findings as one indented JSON array; a clean tree
// prints "[]" so consumers never have to special-case absence.
func writeJSON(w io.Writer, findings []framework.Finding) error {
	rows := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		rows = append(rows, jsonFinding{
			File:     f.Position.Filename,
			Line:     f.Position.Line,
			Column:   f.Position.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
