package offline

import (
	"fmt"

	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/lp"
	"revnf/internal/mip"
)

// Chain offline comparator: the on-site chain problem is the single-VNF
// packing program (Eqs. 4–8) once each (request, cloudlet) pair's
// footprint is fixed by the greedy redundancy allocation.

// chainPair is one feasible (chain request, cloudlet) placement with its
// allocation.
type chainPair struct {
	request, cloudlet int
	alloc             chain.Allocation
}

type chainModel struct {
	prob *lp.Problem
	vars []chainPair
}

func buildChainOnsite(inst *chain.Instance) (*chainModel, error) {
	var pairs []chainPair
	var cols []column
	for _, req := range inst.Trace {
		for j, cl := range inst.Network.Cloudlets {
			alloc, err := chain.OnsiteAllocation(inst.Network.Catalog, req.VNFs, cl.Reliability, req.Reliability)
			if err != nil {
				continue
			}
			pairs = append(pairs, chainPair{request: req.ID, cloudlet: j, alloc: alloc})
			cols = append(cols, column{request: req.ID, payment: req.Payment, arrival: req.Arrival, end: req.End(),
				loads: []load{{j, float64(alloc.Units(inst.Network.Catalog, req.VNFs))}}})
		}
	}
	prob, err := buildPacking(inst.Network, inst.Horizon, cols)
	if err != nil {
		return nil, err
	}
	return &chainModel{prob: prob, vars: pairs}, nil
}

// SolveChainOnsite computes the offline on-site chain schedule by branch
// and bound, with the fixed greedy allocation per (request, cloudlet)
// pair.
func SolveChainOnsite(inst *chain.Instance, cfg mip.Config) (*ChainSolution, error) {
	if err := checkChainInstance(inst); err != nil {
		return nil, err
	}
	model, err := buildChainOnsite(inst)
	if err != nil {
		return nil, err
	}
	sol, x, err := solve[chain.Placement]("chain", model.prob, len(inst.Trace), cfg)
	if x == nil {
		return sol, err
	}
	for k, p := range model.vars {
		if x[k] <= 0.5 {
			continue
		}
		sol.Admitted[p.request] = true
		req := inst.Trace[p.request]
		stages := make([]chain.StagePlacement, len(req.VNFs))
		for s, f := range req.VNFs {
			stages[s] = chain.StagePlacement{
				VNF:         f,
				Assignments: []core.Assignment{{Cloudlet: p.cloudlet, Instances: p.alloc[s]}},
			}
		}
		sol.Placements = append(sol.Placements, chain.Placement{
			Request: p.request,
			Scheme:  core.OnSite,
			Stages:  stages,
		})
	}
	return sol, nil
}

// LPBoundChainOnsite returns the LP-relaxation upper bound on offline
// on-site chain revenue.
func LPBoundChainOnsite(inst *chain.Instance) (float64, error) {
	if err := checkChainInstance(inst); err != nil {
		return 0, err
	}
	model, err := buildChainOnsite(inst)
	if err != nil {
		return 0, err
	}
	return lpBound(model.prob)
}

func checkChainInstance(inst *chain.Instance) error {
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
