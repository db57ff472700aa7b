package lp

import (
	"errors"
	"math"
	"testing"
)

func TestSenseAndCounts(t *testing.T) {
	p := mustProblem(t, Maximize, 3)
	if p.Sense() != Maximize {
		t.Errorf("Sense = %v", p.Sense())
	}
	if p.NumVars() != 3 {
		t.Errorf("NumVars = %d", p.NumVars())
	}
	mustConstraint(t, p, map[int]float64{0: 1}, LE, 1)
	mustConstraint(t, p, map[int]float64{1: 1}, LE, 2)
	if p.NumConstraints() != 2 {
		t.Errorf("NumConstraints = %d", p.NumConstraints())
	}
}

func TestClone(t *testing.T) {
	p := mustProblem(t, Maximize, 2)
	_ = p.SetObjectiveCoeff(0, 3)
	_ = p.SetObjectiveCoeff(1, 5)
	mustConstraint(t, p, map[int]float64{0: 1}, LE, 4)
	mustConstraint(t, p, map[int]float64{1: 2}, LE, 12)
	mustConstraint(t, p, map[int]float64{0: 3, 1: 2}, LE, 18)
	c := p.Clone()
	// Adding a constraint to the clone must not affect the original.
	mustConstraint(t, c, map[int]float64{0: 1}, LE, 0)
	origSol := solveOptimal(t, p)
	if math.Abs(origSol.Objective-36) > 1e-6 {
		t.Errorf("original objective = %v, want 36", origSol.Objective)
	}
	cloneSol := solveOptimal(t, c)
	if math.Abs(cloneSol.Objective-30) > 1e-6 { // x=0, y=6
		t.Errorf("clone objective = %v, want 30", cloneSol.Objective)
	}
	if p.NumConstraints() != 3 || c.NumConstraints() != 4 {
		t.Errorf("constraint counts %d/%d", p.NumConstraints(), c.NumConstraints())
	}
}

func TestObjectiveEval(t *testing.T) {
	p := mustProblem(t, Minimize, 2)
	_ = p.SetObjectiveCoeff(0, 2)
	_ = p.SetObjectiveCoeff(1, -1)
	got, err := p.Objective([]float64{3, 4})
	if err != nil {
		t.Fatalf("Objective: %v", err)
	}
	if got != 2 {
		t.Errorf("Objective = %v, want 2", got)
	}
	if _, err := p.Objective([]float64{1}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("short point err = %v", err)
	}
}

func TestFeasible(t *testing.T) {
	p := mustProblem(t, Maximize, 2)
	mustConstraint(t, p, map[int]float64{0: 1, 1: 1}, LE, 5)
	mustConstraint(t, p, map[int]float64{0: 1}, GE, 1)
	mustConstraint(t, p, map[int]float64{1: 1}, EQ, 2)
	tests := []struct {
		name string
		x    []float64
		want bool
	}{
		{"feasible", []float64{2, 2}, true},
		{"violates LE", []float64{4, 2}, false},
		{"violates GE", []float64{0, 2}, false},
		{"violates EQ high", []float64{1, 3}, false},
		{"violates EQ low", []float64{1, 1}, false},
		{"negative variable", []float64{-1, 2}, false},
		{"wrong length", []float64{1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.Feasible(tt.x, 1e-9); got != tt.want {
				t.Errorf("Feasible(%v) = %v, want %v", tt.x, got, tt.want)
			}
		})
	}
}

// TestFeasibleIsDeterministic checks a row whose terms cancel: summed in
// variable order it is 1e16+1−1e16 = 0 (the 1 rounds away), summed with
// the 1 last it is 1, so a sum in map order answers differently from call
// to call.
func TestFeasibleIsDeterministic(t *testing.T) {
	p := mustProblem(t, Maximize, 3)
	mustConstraint(t, p, map[int]float64{0: 1e16, 1: 1, 2: -1e16}, LE, 0.5)
	x := []float64{1, 1, 1}
	want := p.Feasible(x, 0)
	for i := 0; i < 200; i++ {
		if got := p.Feasible(x, 0); got != want {
			t.Fatalf("call %d: Feasible = %v, the first call said %v", i, got, want)
		}
	}
	if !want {
		t.Errorf("Feasible = false, want true (the row summed in variable order is 0)")
	}
}

// A problem that needs several GE rows exercises phase 1's drive-out when
// an artificial stays basic on a redundant row.
func TestSolveRedundantGERows(t *testing.T) {
	p := mustProblem(t, Minimize, 2)
	_ = p.SetObjectiveCoeff(0, 1)
	_ = p.SetObjectiveCoeff(1, 1)
	mustConstraint(t, p, map[int]float64{0: 1, 1: 1}, GE, 2)
	mustConstraint(t, p, map[int]float64{0: 2, 1: 2}, GE, 4) // redundant duplicate
	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Errorf("Objective = %v, want 2", sol.Objective)
	}
}

// Equality-only systems drive every artificial through phase 1.
func TestSolveEqualityOnlySystem(t *testing.T) {
	p := mustProblem(t, Maximize, 3)
	_ = p.SetObjectiveCoeff(0, 1)
	_ = p.SetObjectiveCoeff(1, 2)
	_ = p.SetObjectiveCoeff(2, 3)
	mustConstraint(t, p, map[int]float64{0: 1, 1: 1, 2: 1}, EQ, 6)
	mustConstraint(t, p, map[int]float64{0: 1, 1: -1}, EQ, 0)
	sol := solveOptimal(t, p)
	// Max 3z + 2y + x with x=y, x+y+z=6 → put all in z: x=y=0, z=6 → 18.
	if math.Abs(sol.Objective-18) > 1e-6 {
		t.Errorf("Objective = %v, want 18", sol.Objective)
	}
}
