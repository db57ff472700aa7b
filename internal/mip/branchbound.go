// Package mip solves 0/1 mixed-integer programs by best-first branch and
// bound over the internal/lp simplex relaxation. Together with internal/lp
// it is the from-scratch substitute for the CPLEX optimizer the paper uses
// to compute offline optima: exact when the search closes the gap within
// its node budget, and otherwise reporting both the best incumbent and the
// best relaxation bound so the caller can bracket the optimum.
package mip

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"revnf/internal/lp"
)

// Errors returned by Solve.
var (
	ErrBadInput = errors.New("mip: invalid input")
)

// intEps is the tolerance within which a relaxation value counts as
// integral.
const intEps = 1e-6

// Status classifies a branch-and-bound outcome.
type Status int

// Solve outcomes.
const (
	// Exact means the incumbent is a proven optimum.
	Exact Status = iota + 1
	// BudgetExceeded means the node budget ran out; Objective is the best
	// feasible value found and Bound brackets the true optimum.
	BudgetExceeded
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// NoIncumbent means the budget ran out before any integer-feasible
	// point was found; only Bound is meaningful.
	NoIncumbent
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Exact:
		return "exact"
	case BudgetExceeded:
		return "budget-exceeded"
	case Infeasible:
		return "infeasible"
	case NoIncumbent:
		return "no-incumbent"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Config tunes the search.
type Config struct {
	// MaxNodes caps the number of relaxations solved; 0 selects 20000.
	MaxNodes int
	// RelativeGap stops the search early when the incumbent is within
	// this fraction of the bound (e.g. 0.001 = 0.1%).
	RelativeGap float64
	// WarmStart optionally seeds the incumbent with a known feasible
	// point (length NumVars, binaries integral). An invalid warm start is
	// an error: it means the caller's heuristic and the model disagree,
	// which should never be silent.
	WarmStart []float64
}

func (c Config) maxNodes() int {
	if c.MaxNodes <= 0 {
		return 20000
	}
	return c.MaxNodes
}

// Result is the outcome of a solve.
type Result struct {
	// Status classifies the outcome.
	Status Status
	// Objective is the incumbent's objective (valid unless NoIncumbent or
	// Infeasible).
	Objective float64
	// Bound is the best relaxation bound: an upper bound for maximization
	// problems and a lower bound for minimization.
	Bound float64
	// X is the incumbent point over the structural variables.
	X []float64
	// Nodes counts the relaxations solved.
	Nodes int
}

// Gap returns the relative optimality gap |Bound-Objective|/max(1,|Objective|),
// or +Inf when there is no incumbent.
func (r Result) Gap() float64 {
	if r.Status == NoIncumbent || r.Status == Infeasible {
		return math.Inf(1)
	}
	return math.Abs(r.Bound-r.Objective) / math.Max(1, math.Abs(r.Objective))
}

// node is one subproblem: a set of 0/1 fixings and the parent's bound used
// for best-first ordering.
type node struct {
	fixes map[int]int
	bound float64
}

type nodeQueue struct {
	items  []*node
	better func(a, b float64) bool
}

func (q *nodeQueue) Len() int           { return len(q.items) }
func (q *nodeQueue) Less(i, j int) bool { return q.better(q.items[i].bound, q.items[j].bound) }
func (q *nodeQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *nodeQueue) Push(x interface{}) { q.items = append(q.items, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	q.items = old[:n-1]
	return it
}

// Solve runs branch and bound on the problem, treating the variables in
// binaries as 0/1. Every binary variable must already carry an x ≤ 1
// constraint (or be otherwise bounded) in the relaxation; Solve adds only
// the branching fixings.
func Solve(base *lp.Problem, binaries []int, cfg Config) (*Result, error) {
	if base == nil {
		return nil, fmt.Errorf("%w: nil problem", ErrBadInput)
	}
	for _, v := range binaries {
		if v < 0 || v >= base.NumVars() {
			return nil, fmt.Errorf("%w: binary variable %d of %d", ErrBadInput, v, base.NumVars())
		}
	}
	maximize := base.Sense() == lp.Maximize
	better := func(a, b float64) bool { return a < b }
	if maximize {
		better = func(a, b float64) bool { return a > b }
	}
	improves := func(bound, incumbent float64) bool {
		if maximize {
			return bound > incumbent+1e-9
		}
		return bound < incumbent-1e-9
	}

	binSet := make(map[int]bool, len(binaries))
	for _, v := range binaries {
		binSet[v] = true
	}
	sortedBins := append([]int(nil), binaries...)
	sort.Ints(sortedBins)

	result := &Result{Status: NoIncumbent}
	incumbent := math.Inf(-1)
	if !maximize {
		incumbent = math.Inf(1)
	}
	haveIncumbent := false
	rootBound := math.Inf(1)
	if !maximize {
		rootBound = math.Inf(-1)
	}

	queue := &nodeQueue{better: better}
	heap.Init(queue)
	heap.Push(queue, &node{fixes: map[int]int{}, bound: rootBound})

	updateIncumbent := func(obj float64, x []float64) {
		if !haveIncumbent || improves(obj, incumbent) {
			haveIncumbent = true
			incumbent = obj
			result.X = append(result.X[:0], x...)
		}
	}

	// bestOutstanding returns the strongest valid global bound: the best
	// open-node bound, or the incumbent when the queue is empty.
	bestOutstanding := func() float64 {
		best := math.NaN()
		for _, it := range queue.items {
			if math.IsInf(it.bound, 0) {
				continue
			}
			if math.IsNaN(best) || improves(it.bound, best) {
				best = it.bound
			}
		}
		if math.IsNaN(best) {
			return incumbent
		}
		if haveIncumbent && improves(incumbent, best) {
			return incumbent
		}
		return best
	}

	if cfg.WarmStart != nil {
		if len(cfg.WarmStart) != base.NumVars() {
			return nil, fmt.Errorf("%w: warm start has %d entries, want %d", ErrBadInput, len(cfg.WarmStart), base.NumVars())
		}
		for _, v := range sortedBins {
			if math.Abs(cfg.WarmStart[v]-math.Round(cfg.WarmStart[v])) > intEps {
				return nil, fmt.Errorf("%w: warm start fractional at binary %d", ErrBadInput, v)
			}
		}
		if !base.Feasible(cfg.WarmStart, 1e-6) {
			return nil, fmt.Errorf("%w: warm start infeasible", ErrBadInput)
		}
		obj, err := base.Objective(cfg.WarmStart)
		if err != nil {
			return nil, fmt.Errorf("%w: warm start: %v", ErrBadInput, err)
		}
		updateIncumbent(obj, cfg.WarmStart)
	}

	exhausted := false
	for queue.Len() > 0 {
		if result.Nodes >= cfg.maxNodes() {
			exhausted = true
			break
		}
		nd := heap.Pop(queue).(*node)
		// Bound-based pruning against the current incumbent.
		if haveIncumbent && !math.IsInf(nd.bound, 0) && !improves(nd.bound, incumbent) {
			continue
		}
		rel := base.Clone()
		if err := applyFixes(rel, nd.fixes); err != nil {
			return nil, err
		}
		sol, err := rel.Solve()
		if err != nil {
			return nil, fmt.Errorf("mip: node relaxation: %w", err)
		}
		result.Nodes++
		if sol.Status == lp.Infeasible {
			continue
		}
		if sol.Status == lp.Unbounded {
			return nil, fmt.Errorf("%w: relaxation unbounded; bound every variable", ErrBadInput)
		}
		if result.Nodes == 1 {
			result.Bound = sol.Objective
		}
		if haveIncumbent && !improves(sol.Objective, incumbent) {
			continue
		}
		frac := mostFractional(sol.X, sortedBins)
		if frac < 0 {
			// Integer feasible: snap values and accept.
			x := append([]float64(nil), sol.X...)
			for _, v := range sortedBins {
				x[v] = math.Round(x[v])
			}
			updateIncumbent(sol.Objective, x)
			if cfg.RelativeGap > 0 && gapWithin(incumbent, bestOutstanding(), cfg.RelativeGap) {
				exhausted = false
				break
			}
			continue
		}
		// Rounding heuristic for an early incumbent.
		if !haveIncumbent {
			if x, obj, ok := tryRound(base, sol.X, sortedBins); ok {
				updateIncumbent(obj, x)
			}
		}
		for _, val := range [2]int{roundDir(sol.X[frac]), 1 - roundDir(sol.X[frac])} {
			child := &node{fixes: make(map[int]int, len(nd.fixes)+1), bound: sol.Objective}
			for k, v := range nd.fixes {
				child.fixes[k] = v
			}
			child.fixes[frac] = val
			heap.Push(queue, child)
		}
	}

	if haveIncumbent || queue.Len() > 0 {
		result.Bound = bestOutstanding()
	}
	// The budget may run out with open nodes whose bounds cannot beat the
	// incumbent anyway (beyond simplex-level numerical noise): that is a
	// proven optimum, not a truncation.
	if exhausted && haveIncumbent && gapWithin(incumbent, result.Bound, 1e-7) {
		exhausted = false
	}
	switch {
	case haveIncumbent && !exhausted:
		// The queue drained (or the gap target was hit): the incumbent is
		// optimal (to within RelativeGap when one was set).
		result.Status = Exact
		result.Objective = incumbent
		if queue.Len() == 0 {
			result.Bound = incumbent
		}
	case haveIncumbent:
		result.Status = BudgetExceeded
		result.Objective = incumbent
	case !exhausted:
		result.Status = Infeasible
	default:
		result.Status = NoIncumbent
	}
	return result, nil
}

// applyFixes adds the fixings in ascending variable order: the simplex's
// anti-degeneracy perturbation is indexed by row, so map order would make
// the pivots, and with them the search, differ from run to run.
func applyFixes(p *lp.Problem, fixes map[int]int) error {
	vars := make([]int, 0, len(fixes))
	for v := range fixes {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		rel, rhs := lp.LE, 0.0
		if fixes[v] == 1 {
			rel, rhs = lp.GE, 1.0
		}
		if _, err := p.AddConstraint(map[int]float64{v: 1}, rel, rhs); err != nil {
			return fmt.Errorf("mip: fixing variable %d: %w", v, err)
		}
	}
	return nil
}

// mostFractional returns the binary variable whose relaxation value is
// farthest from an integer, or -1 when all are integral.
func mostFractional(x []float64, binaries []int) int {
	best, bestDist := -1, intEps
	for _, v := range binaries {
		dist := math.Abs(x[v] - math.Round(x[v]))
		if dist > bestDist {
			best, bestDist = v, dist
		}
	}
	return best
}

func roundDir(v float64) int {
	if v >= 0.5 {
		return 1
	}
	return 0
}

// tryRound rounds the fractional relaxation point to 0/1 on the binaries
// and accepts it when it is feasible for the base problem.
func tryRound(base *lp.Problem, x []float64, binaries []int) ([]float64, float64, bool) {
	rounded := append([]float64(nil), x...)
	for _, v := range binaries {
		rounded[v] = math.Round(rounded[v])
	}
	if !base.Feasible(rounded, 1e-7) {
		return nil, 0, false
	}
	obj, err := base.Objective(rounded)
	if err != nil {
		return nil, 0, false
	}
	return rounded, obj, true
}

func gapWithin(incumbent, bound, gap float64) bool {
	if math.IsInf(bound, 0) {
		return false
	}
	return math.Abs(bound-incumbent) <= gap*math.Max(1, math.Abs(incumbent))
}
