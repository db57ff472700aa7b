package lp

import (
	"fmt"
	"sort"
)

// Sense returns the problem's optimization direction.
func (p *Problem) Sense() Sense { return p.sense }

// Clone returns an independent deep copy of the problem. Branch-and-bound
// uses clones to add bound constraints per node without disturbing the
// base relaxation.
func (p *Problem) Clone() *Problem {
	obj := make([]float64, len(p.obj))
	copy(obj, p.obj)
	cons := make([]Constraint, len(p.cons))
	for i, c := range p.cons {
		coeffs := make(map[int]float64, len(c.Coeffs))
		for k, v := range c.Coeffs {
			coeffs[k] = v
		}
		cons[i] = Constraint{Coeffs: coeffs, Rel: c.Rel, RHS: c.RHS}
	}
	return &Problem{sense: p.sense, nvars: p.nvars, obj: obj, cons: cons}
}

// Objective evaluates c·x for a candidate point.
func (p *Problem) Objective(x []float64) (float64, error) {
	if len(x) != p.nvars {
		return 0, fmt.Errorf("%w: point has %d entries, want %d", ErrBadProblem, len(x), p.nvars)
	}
	total := 0.0
	for i, c := range p.obj {
		total += c * x[i]
	}
	return total, nil
}

// Feasible reports whether x satisfies every constraint and the
// non-negativity bounds within tolerance tol. Each row is summed in
// ascending variable order: in map order, terms that cancel could round
// differently on each call, and the same point pass once and fail the next.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	if len(x) != p.nvars {
		return false
	}
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	var vars []int
	for _, c := range p.cons {
		vars = vars[:0]
		for i := range c.Coeffs {
			vars = append(vars, i)
		}
		sort.Ints(vars)
		dot := 0.0
		for _, i := range vars {
			dot += c.Coeffs[i] * x[i]
		}
		switch c.Rel {
		case LE:
			if dot > c.RHS+tol {
				return false
			}
		case GE:
			if dot < c.RHS-tol {
				return false
			}
		case EQ:
			if dot < c.RHS-tol || dot > c.RHS+tol {
				return false
			}
		}
	}
	return true
}
