// Package framework is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's invariant
// checkers. It exists because the build environment is hermetic (no module
// proxy), so the real x/tools module cannot be fetched; the API mirrors
// the upstream shape — an Analyzer owning a Run function over a Pass —
// closely enough that migrating to x/tools later is a mechanical import
// swap.
//
// Differences from upstream, all deliberate simplifications:
//
//   - no Requires/ResultOf fact plumbing — the guardedby and lockorder
//     analyzers are independent single-package passes;
//   - no SuggestedFixes — the root TestLockDiscipline only reports;
//   - no suppression comments — a finding is fixed, or the code is
//     restructured so the analyzer can see why it is safe.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Run applies the analyzer to one package. It reports findings via
	// pass.Report/Reportf and returns an error only for analyzer-internal
	// failures (not for findings).
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	// Analyzer is the currently running analyzer.
	Analyzer *Analyzer
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files holds the package's parsed syntax trees (non-test files).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type information for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message describes the violated invariant.
	Message string
	// Analyzer is filled in by the runner.
	Analyzer string
}

// Finding is a positioned diagnostic as returned by Run.
type Finding struct {
	// Position is the resolved file:line:column.
	Position token.Position
	// Message and Analyzer mirror the Diagnostic.
	Message  string
	Analyzer string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// Unit is the input to Run: one type-checked package.
type Unit struct {
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed (non-test) sources.
	Files []*ast.File
	// Pkg and Info are the type-check results.
	Pkg  *types.Package
	Info *types.Info
}

// Run applies every analyzer to every unit and returns the findings sorted
// by position. The error aggregates analyzer-internal failures; findings
// alone never produce an error.
func Run(units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	var errs []string
	for _, u := range units {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{Position: u.Fset.Position(d.Pos), Message: d.Message, Analyzer: a.Name})
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Sprintf("%s on %s: %v", a.Name, u.Pkg.Path(), err))
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	if len(errs) > 0 {
		return findings, fmt.Errorf("analysis failures:\n  %s", strings.Join(errs, "\n  "))
	}
	return findings, nil
}
