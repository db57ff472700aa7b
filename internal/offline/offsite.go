package offline

import (
	"fmt"

	"revnf/internal/core"
	"revnf/internal/lp"
	"revnf/internal/mip"
	"revnf/internal/workload"
)

// offsiteModel maps the linearized off-site ILP's variables: X_i for each
// request followed by Y_ij for each (request, cloudlet) pair.
type offsiteModel struct {
	prob *lp.Problem
	n, m int
}

func (o *offsiteModel) xVar(i int) int    { return i }
func (o *offsiteModel) yVar(i, j int) int { return o.n + i*o.m + j }

// buildOffsite constructs the LP relaxation of the log-linearized off-site
// ILP (Eqs. 49–53). With w_ij = -ln(1 - r(f_i)·r(c_j)) > 0 and
// W_i = -ln(1 - R_i) > 0 the reliability constraints become
//
//	Σ_j w_ij·Y_ij ≥ W_i·X_i            (Eq. 50, sign-flipped)
//	Σ_j w_ij·Y_ij ≤ (Σ_j w_ij)·X_i     (Eq. 51 with the tight per-request L)
//
// so Y_ij is forced to zero whenever X_i = 0 and the weight target is met
// whenever X_i = 1.
//
// withBoxes adds the Y_ij ≤ 1 rows that branch and bound needs for valid
// 0/1 branching. The pure LP bound omits them: every ILP-feasible point
// stays feasible, so the (slightly weaker) objective is still a valid
// upper bound, and the dense tableau shrinks by n·m rows.
func buildOffsite(inst *workload.Instance, withBoxes bool) (*offsiteModel, error) {
	n, m := len(inst.Trace), len(inst.Network.Cloudlets)
	model := &offsiteModel{n: n, m: m}
	prob, err := lp.NewProblem(lp.Maximize, n+n*m)
	if err != nil {
		return nil, fmt.Errorf("offline: %w", err)
	}
	model.prob = prob
	// Column yVar(i, j) loads c(f_i) on cloudlet j; the X_i columns load
	// nothing.
	cols := make([]column, n+n*m)
	for _, req := range inst.Trace {
		i := req.ID
		if err := prob.SetObjectiveCoeff(model.xVar(i), req.Payment); err != nil {
			return nil, fmt.Errorf("offline: %w", err)
		}
		// X_i ≤ 1 and Y_ij ≤ 1 box constraints keep the relaxation
		// bounded and give branch and bound valid 0/1 ranges.
		if _, err := prob.AddConstraint(map[int]float64{model.xVar(i): 1}, lp.LE, 1); err != nil {
			return nil, fmt.Errorf("offline: %w", err)
		}
		vnf := inst.Network.Catalog[req.VNF]
		lower := map[int]float64{model.xVar(i): -core.RequirementWeight(req.Reliability)}
		upper := map[int]float64{}
		totalWeight := 0.0
		for j, cl := range inst.Network.Cloudlets {
			w := core.OffsiteWeight(vnf.Reliability, cl.Reliability)
			lower[model.yVar(i, j)] = w
			upper[model.yVar(i, j)] = w
			totalWeight += w
			if withBoxes {
				if _, err := prob.AddConstraint(map[int]float64{model.yVar(i, j): 1}, lp.LE, 1); err != nil {
					return nil, fmt.Errorf("offline: %w", err)
				}
			}
			cols[model.yVar(i, j)] = column{arrival: req.Arrival, end: req.End(), loads: []load{{j, float64(vnf.Demand)}}}
		}
		upper[model.xVar(i)] = -totalWeight
		if _, err := prob.AddConstraint(lower, lp.GE, 0); err != nil {
			return nil, fmt.Errorf("offline: %w", err)
		}
		if _, err := prob.AddConstraint(upper, lp.LE, 0); err != nil {
			return nil, fmt.Errorf("offline: %w", err)
		}
	}
	// Capacity constraints (49) per (cloudlet, slot) with active load.
	if err := addCapacityRows(prob, inst.Network, inst.Horizon, cols); err != nil {
		return nil, err
	}
	return model, nil
}

// SolveOffsite computes the offline off-site schedule by branch and bound
// on the linearized ILP.
func SolveOffsite(inst *workload.Instance, cfg mip.Config) (*Solution, error) {
	if err := checkInstance(inst); err != nil {
		return nil, err
	}
	model, err := buildOffsite(inst, true)
	if err != nil {
		return nil, err
	}
	if cfg.WarmStart == nil {
		warm, err := offsiteWarmStart(inst, model)
		if err != nil {
			return nil, fmt.Errorf("offline: off-site warm start: %w", err)
		}
		cfg.WarmStart = warm
	}
	sol, x, err := solve[core.Placement]("off-site", model.prob, len(inst.Trace), cfg)
	if x == nil {
		return sol, err
	}
	for _, req := range inst.Trace {
		i := req.ID
		if x[model.xVar(i)] <= 0.5 {
			continue
		}
		sol.Admitted[i] = true
		p := core.Placement{Request: i, Scheme: core.OffSite}
		for j := 0; j < model.m; j++ {
			if x[model.yVar(i, j)] > 0.5 {
				p.Assignments = append(p.Assignments, core.Assignment{Cloudlet: j, Instances: 1})
			}
		}
		sol.Placements = append(sol.Placements, p)
	}
	return sol, nil
}

// LPBoundOffsite returns the LP-relaxation upper bound on offline off-site
// revenue.
func LPBoundOffsite(inst *workload.Instance) (float64, error) {
	if err := checkInstance(inst); err != nil {
		return 0, err
	}
	model, err := buildOffsite(inst, false)
	if err != nil {
		return 0, err
	}
	return lpBound(model.prob)
}
