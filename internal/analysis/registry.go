// Package analysis registers the revnfvet invariant suite: the analyzers
// that mechanically enforce the contracts PRs 1–2 established in prose
// and that no toolchain check or test holds. See DESIGN.md "Enforced
// invariants" for the invariant each pass protects, and for the checks
// that hold the rules of the passes that went.
package analysis

import (
	"revnf/internal/analysis/floateq"
	"revnf/internal/analysis/framework"
	"revnf/internal/analysis/guardedby"
	"revnf/internal/analysis/lockorder"
)

// All returns every registered analyzer, in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		floateq.Analyzer,
		guardedby.Analyzer,
		lockorder.Analyzer,
	}
}

// ByName returns the named analyzers, or nil when any name is unknown.
func ByName(names ...string) []*framework.Analyzer {
	byName := make(map[string]*framework.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	out := make([]*framework.Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}
