package offline

import (
	"sort"

	"revnf/internal/core"
	"revnf/internal/timeslot"
	"revnf/internal/workload"
)

// Warm starts seed branch and bound with a feasible greedy schedule so
// that even a tiny node budget returns a usable incumbent (the bare
// best-first dive can spend thousands of nodes before reaching an integral
// leaf on instances this size). Offline knowledge is used: requests are
// packed in payment-density order rather than arrival order.

// onsiteWarmStart builds a feasible point for the on-site model, taking
// the better of two packing heuristics: payment-density order with
// smallest-footprint placement, and payment-density order with
// most-reliable-first placement (the offline cousin of the greedy
// baseline). Branch and bound only improves from there, so even a
// one-node budget beats both.
func onsiteWarmStart(inst *workload.Instance, model *onsiteModel) ([]float64, error) {
	dense, err := onsiteGreedy(inst, model, true)
	if err != nil {
		return nil, err
	}
	reliable, err := onsiteGreedy(inst, model, false)
	if err != nil {
		return nil, err
	}
	dObj, err := model.prob.Objective(dense)
	if err != nil {
		return nil, err
	}
	rObj, err := model.prob.Objective(reliable)
	if err != nil {
		return nil, err
	}
	if rObj > dObj {
		return reliable, nil
	}
	return dense, nil
}

// onsiteGreedy packs requests in payment-density order. With
// smallestFootprint it places each in the cheapest-footprint feasible
// cloudlet; otherwise in the most reliable feasible one.
func onsiteGreedy(inst *workload.Instance, model *onsiteModel, smallestFootprint bool) ([]float64, error) {
	ledger, err := timeslot.New(inst.Network.Capacities(), inst.Horizon)
	if err != nil {
		return nil, err
	}
	// Index the model's variables by request.
	varsOf := make(map[int][]int, len(inst.Trace))
	for k, p := range model.vars {
		varsOf[p.request] = append(varsOf[p.request], k)
	}
	order := paymentDensityOrder(inst)
	x := make([]float64, model.prob.NumVars())
	for _, i := range order {
		req := inst.Trace[i]
		demand := inst.Network.Catalog[req.VNF].Demand
		bestVar, bestUnits := -1, 0
		bestReliability := 0.0
		for _, k := range varsOf[i] {
			p := model.vars[k]
			units := p.instances * demand
			if !ledger.CanReserve(p.cloudlet, req.Arrival, req.Duration, units) {
				continue
			}
			better := false
			if bestVar < 0 {
				better = true
			} else if smallestFootprint {
				better = units < bestUnits
			} else {
				better = inst.Network.Cloudlets[p.cloudlet].Reliability > bestReliability
			}
			if better {
				bestVar, bestUnits = k, units
				bestReliability = inst.Network.Cloudlets[p.cloudlet].Reliability
			}
		}
		if bestVar < 0 {
			continue
		}
		p := model.vars[bestVar]
		if err := ledger.Reserve(p.cloudlet, req.Arrival, req.Duration, bestUnits); err != nil {
			return nil, err
		}
		x[bestVar] = 1
	}
	// The ledger here is a local feasibility counter for the greedy pack;
	// it is discarded with the function, so its reservations are never
	// released.
	return x, nil
}

// offsiteWarmStart builds a feasible point for the off-site model:
// requests in payment-density order, cloudlets accumulated most reliable
// first (mirroring the greedy baseline) until the weight target is met.
func offsiteWarmStart(inst *workload.Instance, model *offsiteModel) ([]float64, error) {
	ledger, err := timeslot.New(inst.Network.Capacities(), inst.Horizon)
	if err != nil {
		return nil, err
	}
	byReliability := inst.Network.ByReliability()
	x := make([]float64, model.prob.NumVars())
	for _, i := range paymentDensityOrder(inst) {
		req := inst.Trace[i]
		vnf := inst.Network.Catalog[req.VNF]
		needWeight := core.RequirementWeight(req.Reliability)
		totalWeight := 0.0
		var chosen []int
		for _, j := range byReliability {
			if !ledger.CanReserve(j, req.Arrival, req.Duration, vnf.Demand) {
				continue
			}
			chosen = append(chosen, j)
			totalWeight += core.OffsiteWeight(vnf.Reliability, inst.Network.Cloudlets[j].Reliability)
			if core.MeetsRequirement(totalWeight, needWeight) {
				break
			}
		}
		if !core.MeetsRequirement(totalWeight, needWeight) {
			continue
		}
		for _, j := range chosen {
			if err := ledger.Reserve(j, req.Arrival, req.Duration, vnf.Demand); err != nil {
				return nil, err
			}
			x[model.yVar(i, j)] = 1
		}
		x[model.xVar(i)] = 1
	}
	// Same as onsiteGreedy: the ledger is a throwaway feasibility counter,
	// not the live admission ledger.
	return x, nil
}

// paymentDensityOrder returns request IDs sorted by payment per consumed
// unit-slot, descending — the offline packing heuristic.
func paymentDensityOrder(inst *workload.Instance) []int {
	order := make([]int, len(inst.Trace))
	for i := range order {
		order[i] = i
	}
	density := func(i int) float64 {
		req := inst.Trace[i]
		demand := inst.Network.Catalog[req.VNF].Demand
		return req.Payment / float64(demand*req.Duration)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := density(order[a]), density(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order
}
