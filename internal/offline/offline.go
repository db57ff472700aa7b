// Package offline computes the offline comparator curves of the paper's
// evaluation. The paper solves the on-site ILP (Eqs. 4–8) and the
// linearized off-site ILP (Eqs. 49–53) with CPLEX; this package builds the
// same programs over internal/lp and solves them with internal/mip's
// branch and bound — exact when the search finishes within its node
// budget, otherwise reporting the best incumbent together with the
// relaxation upper bound so experiments can bracket the true optimum. The
// pure LP relaxation bounds are also exposed for cheap upper-bound curves.
//
// The on-site, shared and chain programs are one set-packing program over
// different columns (buildPacking); the off-site program ties a
// placement's cloudlets together in its reliability rows and has its own
// builder.
package offline

import (
	"errors"
	"fmt"

	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/lp"
	"revnf/internal/mip"
	"revnf/internal/workload"
)

// Errors returned by the solvers.
var (
	ErrBadInstance = errors.New("offline: invalid instance")
)

// Schedule is an offline schedule with its optimality certificate; P is
// the placement type of the problem solved.
type Schedule[P any] struct {
	// Status is the branch-and-bound outcome.
	Status mip.Status
	// Revenue is the incumbent's objective: a feasible offline revenue.
	Revenue float64
	// UpperBound is the best relaxation bound; the true offline optimum
	// lies in [Revenue, UpperBound].
	UpperBound float64
	// Admitted flags each request in trace order.
	Admitted []bool
	// Placements holds one placement per admitted request.
	Placements []P
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Solution is an offline schedule of single-VNF requests.
type Solution = Schedule[core.Placement]

// ChainSolution is an offline schedule of chain requests.
type ChainSolution = Schedule[chain.Placement]

// Gap returns the relative optimality gap of the solution.
func (s *Schedule[P]) Gap() float64 {
	// The incumbent revenue is a sum of payments, so "empty incumbent" is
	// a tolerance check, not exact zero (revnfvet: floateq).
	if core.FloatEq(s.Revenue, 0) {
		if core.FloatEq(s.UpperBound, 0) {
			return 0
		}
		return 1
	}
	return (s.UpperBound - s.Revenue) / s.Revenue
}

// load is the units a column holds on one cloudlet in every slot of its
// request's window.
type load struct {
	cloudlet int
	units    float64
}

// column is one candidate placement of a request: one program variable.
type column struct {
	request      int
	payment      float64
	arrival, end int
	loads        []load
}

// buildPacking builds the set-packing relaxation the on-site, shared and
// chain programs share, one variable per column:
//
//	max Σ_k payment_k·x_k
//	Σ_{k of request i} x_k ≤ 1                       (5), (21)
//	Σ_{k active at t} units_kj·x_k ≤ cap_j           (4), per cloudlet and slot
//
// The columns must come grouped by request, in request order.
func buildPacking(network *core.Network, horizon int, cols []column) (*lp.Problem, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no request has a feasible placement", ErrBadInstance)
	}
	prob, err := lp.NewProblem(lp.Maximize, len(cols))
	if err != nil {
		return nil, fmt.Errorf("offline: %w", err)
	}
	for k := 0; k < len(cols); {
		row := map[int]float64{}
		for i := cols[k].request; k < len(cols) && cols[k].request == i; k++ {
			if err := prob.SetObjectiveCoeff(k, cols[k].payment); err != nil {
				return nil, fmt.Errorf("offline: %w", err)
			}
			row[k] = 1
		}
		if _, err := prob.AddConstraint(row, lp.LE, 1); err != nil {
			return nil, fmt.Errorf("offline: %w", err)
		}
	}
	if err := addCapacityRows(prob, network, horizon, cols); err != nil {
		return nil, err
	}
	return prob, nil
}

// addCapacityRows adds one ≤ cap_j row per (cloudlet, slot) some column
// loads, cloudlet by cloudlet and slots ascending; column k is variable k.
func addCapacityRows(prob *lp.Problem, network *core.Network, horizon int, cols []column) error {
	rows := make(map[[2]int]map[int]float64)
	for k, c := range cols {
		for _, l := range c.loads {
			for t := c.arrival; t <= c.end; t++ {
				key := [2]int{l.cloudlet, t}
				if rows[key] == nil {
					rows[key] = map[int]float64{}
				}
				rows[key][k] += l.units
			}
		}
	}
	for j, cl := range network.Cloudlets {
		for t := 1; t <= horizon; t++ {
			if row, ok := rows[[2]int{j, t}]; ok {
				if _, err := prob.AddConstraint(row, lp.LE, float64(cl.Capacity)); err != nil {
					return fmt.Errorf("offline: %w", err)
				}
			}
		}
	}
	return nil
}

// solve runs branch and bound with every variable binary and returns the
// certificate of a schedule over the given number of requests, with the
// incumbent point for the caller to decode — nil when there is none.
func solve[P any](scheme string, prob *lp.Problem, requests int, cfg mip.Config) (*Schedule[P], []float64, error) {
	binaries := make([]int, prob.NumVars())
	for k := range binaries {
		binaries[k] = k
	}
	res, err := mip.Solve(prob, binaries, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("offline: %s solve: %w", scheme, err)
	}
	sol := &Schedule[P]{
		Status:     res.Status,
		UpperBound: res.Bound,
		Admitted:   make([]bool, requests),
		Nodes:      res.Nodes,
	}
	if res.Status == mip.Infeasible || res.Status == mip.NoIncumbent {
		return sol, nil, nil
	}
	sol.Revenue = res.Objective
	return sol, res.X, nil
}

// lpBound returns the optimum of the relaxation prob.
func lpBound(prob *lp.Problem) (float64, error) {
	sol, err := prob.Solve()
	if err != nil {
		return 0, fmt.Errorf("offline: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("%w: relaxation status %v", ErrBadInstance, sol.Status)
	}
	return sol.Objective, nil
}

// onsitePair is one on-site column: the request's instances all in one
// cloudlet.
type onsitePair struct {
	request, cloudlet, instances int
}

// onsiteModel is the on-site program: variable k places vars[k].
type onsiteModel struct {
	prob *lp.Problem
	vars []onsitePair
}

// buildOnsite constructs the LP relaxation of the on-site ILP (Eqs. 4–8)
// with X_i eliminated through X_i = Σ_j Y_ij.
func buildOnsite(inst *workload.Instance) (*onsiteModel, error) {
	var pairs []onsitePair
	var cols []column
	for _, req := range inst.Trace {
		vnf := inst.Network.Catalog[req.VNF]
		for j, cl := range inst.Network.Cloudlets {
			n, err := core.OnsiteInstances(vnf.Reliability, cl.Reliability, req.Reliability)
			if err != nil {
				continue
			}
			pairs = append(pairs, onsitePair{request: req.ID, cloudlet: j, instances: n})
			cols = append(cols, column{request: req.ID, payment: req.Payment, arrival: req.Arrival, end: req.End(),
				loads: []load{{j, float64(n * vnf.Demand)}}})
		}
	}
	prob, err := buildPacking(inst.Network, inst.Horizon, cols)
	if err != nil {
		return nil, err
	}
	return &onsiteModel{prob: prob, vars: pairs}, nil
}

// SolveOnsite computes the offline on-site schedule by branch and bound.
func SolveOnsite(inst *workload.Instance, cfg mip.Config) (*Solution, error) {
	if err := checkInstance(inst); err != nil {
		return nil, err
	}
	model, err := buildOnsite(inst)
	if err != nil {
		return nil, err
	}
	if cfg.WarmStart == nil {
		warm, err := onsiteWarmStart(inst, model)
		if err != nil {
			return nil, fmt.Errorf("offline: on-site warm start: %w", err)
		}
		cfg.WarmStart = warm
	}
	sol, x, err := solve[core.Placement]("on-site", model.prob, len(inst.Trace), cfg)
	if x == nil {
		return sol, err
	}
	for k, p := range model.vars {
		if x[k] > 0.5 {
			sol.Admitted[p.request] = true
			sol.Placements = append(sol.Placements, core.Placement{
				Request:     p.request,
				Scheme:      core.OnSite,
				Assignments: []core.Assignment{{Cloudlet: p.cloudlet, Instances: p.instances}},
			})
		}
	}
	return sol, nil
}

// LPBoundOnsite returns the LP-relaxation upper bound on offline on-site
// revenue, the cheap stand-in for the optimal curve at large scales.
func LPBoundOnsite(inst *workload.Instance) (float64, error) {
	if err := checkInstance(inst); err != nil {
		return 0, err
	}
	model, err := buildOnsite(inst)
	if err != nil {
		return 0, err
	}
	return lpBound(model.prob)
}

func checkInstance(inst *workload.Instance) error {
	if inst == nil {
		return fmt.Errorf("%w: nil", ErrBadInstance)
	}
	if err := inst.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	if len(inst.Trace) == 0 {
		return fmt.Errorf("%w: empty trace", ErrBadInstance)
	}
	return nil
}
