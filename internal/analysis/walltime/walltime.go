// Package walltime forbids wall-clock reads in the deterministic
// scheduling packages.
//
// Invariant: slot time is the only notion of time inside the admission and
// simulation algorithms — it comes from the engine's clock abstraction
// (the batch loop's slot counter, or the serve engine's injectable Now
// function), never from the machine. A stray time.Now in one of these
// packages makes decisions depend on wall time, which breaks replayable
// traces and the golden tests. Packages outside the deterministic set
// (the serve layer's default clock, experiments that measure throughput,
// commands) may read the wall clock freely.
package walltime

import (
	"go/ast"
	"go/types"

	"revnf/internal/analysis/framework"
)

// DeterministicPkgs is the set of package paths in which wall-clock reads
// are forbidden. The driver may override it.
var DeterministicPkgs = map[string]bool{
	"revnf/internal/onsite":   true,
	"revnf/internal/offsite":  true,
	"revnf/internal/shared":   true,
	"revnf/internal/dual":     true,
	"revnf/internal/baseline": true,
	"revnf/internal/chain":    true,
	"revnf/internal/simulate": true,
	"revnf/internal/core":     true,
	"revnf/internal/timeslot": true,
	"revnf/internal/trace":    true,
	// Wire decode/encode is pure byte manipulation on the ingest hot
	// path; any clock read there would be both nondeterministic and an
	// allocation-free-path regression risk.
	"revnf/internal/wire": true,
	// The failure runtime is driven by the serve engine's slot clock: a
	// wall-clock read in the injector, repair controller, or SLO books
	// would decouple failures from the slots they are accounted against.
	"revnf/internal/chaos":  true,
	"revnf/internal/repair": true,
	"revnf/internal/slo":    true,
}

// forbidden lists the package-level time functions that read the wall
// clock (Until and Tick derive from Now).
var forbidden = map[string]bool{"Now": true, "Since": true, "Until": true, "Tick": true}

// Analyzer is the walltime pass.
var Analyzer = &framework.Analyzer{
	Name: "walltime",
	Doc:  "forbid time.Now/time.Since in deterministic packages; slot time comes from the clock abstraction",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !DeterministicPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !forbidden[fn.Name()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			pass.Reportf(sel.Pos(),
				"wall-clock read time.%s in deterministic package %s; slot time must come from the engine clock",
				fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil
}
