package chain

import (
	"fmt"
	"sort"
	"sync"

	"revnf/internal/core"
	"revnf/internal/dual"
)

// OnsiteScheduler is the chain generalization of Algorithm 1: one dual
// price per (slot, cloudlet), an admission test comparing payment against
// the cheapest cloudlet's dual cost for the whole chain allocation, and
// the multiplicative update of Eq. (34) applied with the chain's total
// computing footprint. Propose reads λ under the read lock; Commit writes
// under the write lock.
type OnsiteScheduler struct {
	network *core.Network
	mu      sync.RWMutex
	prices  dual.Table // guarded by mu
}

// NewOnsiteScheduler creates the chain on-site primal-dual scheduler. It
// always enforces residual capacity (the evaluated variant).
func NewOnsiteScheduler(network *core.Network, horizon int) (*OnsiteScheduler, error) {
	if err := checkNetwork(network, horizon); err != nil {
		return nil, err
	}
	return &OnsiteScheduler{
		network: network,
		prices:  dual.NewTable(len(network.Cloudlets), horizon),
	}, nil
}

// Name implements core.TwoPhase.
func (s *OnsiteScheduler) Name() string { return "pd-chain-onsite" }

// Scheme implements core.TwoPhase.
func (s *OnsiteScheduler) Scheme() core.Scheme { return core.OnSite }

// Propose implements core.TwoPhase: the argmin over cloudlets and the
// payment test, reading λ under the read lock.
func (s *OnsiteScheduler) Propose(req Request, view core.CapacityView) (Placement, bool) {
	if len(req.VNFs) == 0 {
		return Placement{}, false
	}
	bestCloudlet := -1
	var bestAlloc Allocation
	bestPrice := 0.0
	s.mu.RLock()
	if !s.prices.Contains(req.Arrival, req.End()) {
		s.mu.RUnlock()
		return Placement{}, false
	}
	for j, cl := range s.network.Cloudlets {
		alloc, err := OnsiteAllocation(s.network.Catalog, req.VNFs, cl.Reliability, req.Reliability)
		if err != nil {
			continue
		}
		units := alloc.Units(s.network.Catalog, req.VNFs)
		if view.ResidualWindow(j, req.Arrival, req.Duration) < units {
			continue
		}
		price := s.prices.Sum(j, req.Arrival, req.End(), float64(units))
		if bestCloudlet < 0 || price < bestPrice {
			bestCloudlet, bestAlloc, bestPrice = j, alloc, price
		}
	}
	s.mu.RUnlock()
	if bestCloudlet < 0 || req.Payment-bestPrice <= 0 {
		return Placement{}, false
	}
	stages := make([]StagePlacement, len(req.VNFs))
	for k, f := range req.VNFs {
		stages[k] = StagePlacement{
			VNF:         f,
			Assignments: []core.Assignment{{Cloudlet: bestCloudlet, Instances: bestAlloc[k]}},
		}
	}
	return Placement{Request: req.ID, Scheme: core.OnSite, Stages: stages}, true
}

// Commit implements core.TwoPhase: the Eq. (34) update with the
// chain's total footprint, under the write lock.
func (s *OnsiteScheduler) Commit(req Request, p Placement) {
	if len(p.Stages) == 0 {
		return
	}
	cloudlet := p.Stages[0].Assignments[0].Cloudlet
	units := 0
	for _, st := range p.Stages {
		for _, a := range st.Assignments {
			units += a.Units(s.network.Catalog[st.VNF].Demand)
		}
	}
	capj := float64(s.network.Cloudlets[cloudlet].Capacity)
	growth := 1 + float64(units)/capj
	additive := float64(units) * req.Payment / (float64(req.Duration) * capj)
	s.mu.Lock()
	s.prices.Update(cloudlet, req.Arrival, req.End(), growth, additive)
	s.mu.Unlock()
}

// Abort implements core.TwoPhase; Propose acquires nothing.
func (s *OnsiteScheduler) Abort(Request, Placement) {}

// ConcurrentPropose implements core.TwoPhase.
func (s *OnsiteScheduler) ConcurrentPropose() bool { return true }

// Lambda implements core.LambdaReader: the current dual price λ_{tj}.
func (s *OnsiteScheduler) Lambda(cloudlet, slot int) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prices.At(cloudlet, slot)
}

// OffsiteScheduler is the chain generalization of Algorithm 2: the chain
// requirement is split into per-stage targets R^{1/K}, and each stage runs
// the dual-price accumulation of Algorithm 2 with its share of the
// payment. The chain is admitted only when every stage can be satisfied.
// Propose reads λ under the read lock; Commit writes under the write lock.
type OffsiteScheduler struct {
	network *core.Network
	mu      sync.RWMutex
	prices  dual.Table // guarded by mu
}

// NewOffsiteScheduler creates the chain off-site primal-dual scheduler.
func NewOffsiteScheduler(network *core.Network, horizon int) (*OffsiteScheduler, error) {
	if err := checkNetwork(network, horizon); err != nil {
		return nil, err
	}
	return &OffsiteScheduler{
		network: network,
		prices:  dual.NewTable(len(network.Cloudlets), horizon),
	}, nil
}

// Name implements core.TwoPhase.
func (s *OffsiteScheduler) Name() string { return "pd-chain-offsite" }

// Scheme implements core.TwoPhase.
func (s *OffsiteScheduler) Scheme() core.Scheme { return core.OffSite }

// Propose implements core.TwoPhase: the staged dual-price accumulation
// without the updates, reading λ under the read lock.
func (s *OffsiteScheduler) Propose(req Request, view core.CapacityView) (Placement, bool) {
	if len(req.VNFs) == 0 {
		return Placement{}, false
	}
	targets, err := OffsiteStageTargets(req.Reliability, len(req.VNFs))
	if err != nil {
		return Placement{}, false
	}
	stagePay := req.Payment / float64(len(req.VNFs))
	// used excludes cloudlets claimed by earlier stages of this chain:
	// keeping stage sets disjoint (anti-affinity) removes the failure
	// correlation between stages, so the independent per-stage targets
	// R^{1/K} compose exactly.
	used := make(map[int]int, len(s.network.Cloudlets))
	stages := make([]StagePlacement, len(req.VNFs))
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.prices.Contains(req.Arrival, req.End()) {
		return Placement{}, false
	}
	for k, f := range req.VNFs {
		st, ok := s.placeStage(req, f, targets[k], stagePay, used, view)
		if !ok {
			return Placement{}, false
		}
		demand := s.network.Catalog[f].Demand
		for _, a := range st.Assignments {
			used[a.Cloudlet] += a.Units(demand)
		}
		stages[k] = st
	}
	return Placement{Request: req.ID, Scheme: core.OffSite, Stages: stages}, true
}

// Commit implements core.TwoPhase: the per-stage Eq. (67) updates,
// under the write lock (a rejected chain leaves no trace because Propose
// never updates).
func (s *OffsiteScheduler) Commit(req Request, p Placement) {
	if len(p.Stages) == 0 {
		return
	}
	targets, err := OffsiteStageTargets(req.Reliability, len(p.Stages))
	if err != nil {
		return
	}
	stagePay := req.Payment / float64(len(p.Stages))
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, st := range p.Stages {
		s.updateDuals(req, st, targets[k], stagePay)
	}
}

// Abort implements core.TwoPhase; Propose acquires nothing.
func (s *OffsiteScheduler) Abort(Request, Placement) {}

// ConcurrentPropose implements core.TwoPhase.
func (s *OffsiteScheduler) ConcurrentPropose() bool { return true }

// Lambda implements core.LambdaReader: the current dual price λ_{tj}.
func (s *OffsiteScheduler) Lambda(cloudlet, slot int) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prices.At(cloudlet, slot)
}

// placeStage runs one stage's Algorithm 2 accumulation. The caller must
// hold s.mu (either side) for the λ reads.
func (s *OffsiteScheduler) placeStage(req Request, vnf int, target, stagePay float64, used map[int]int, view core.CapacityView) (StagePlacement, bool) {
	rf := s.network.Catalog[vnf].Reliability
	demand := s.network.Catalog[vnf].Demand
	needWeight := core.RequirementWeight(target)
	type candidate struct {
		cloudlet int
		weight   float64
		price    float64
	}
	candidates := make([]candidate, 0, len(s.network.Cloudlets))
	for j, cl := range s.network.Cloudlets {
		w := core.OffsiteWeight(rf, cl.Reliability)
		price := s.prices.Sum(j, req.Arrival, req.End(), 1) / w
		if stagePay-needWeight*float64(demand)*price <= 0 {
			continue
		}
		candidates = append(candidates, candidate{cloudlet: j, weight: w, price: price})
	}
	sort.Slice(candidates, func(a, b int) bool {
		if candidates[a].price != candidates[b].price {
			return candidates[a].price < candidates[b].price
		}
		return candidates[a].cloudlet < candidates[b].cloudlet
	})
	var assignments []core.Assignment
	totalWeight := 0.0
	for _, c := range candidates {
		if _, taken := used[c.cloudlet]; taken {
			continue // anti-affinity across stages
		}
		if view.ResidualWindow(c.cloudlet, req.Arrival, req.Duration) < demand {
			continue
		}
		assignments = append(assignments, core.Assignment{Cloudlet: c.cloudlet, Instances: 1})
		totalWeight += c.weight
		if core.MeetsRequirement(totalWeight, needWeight) {
			return StagePlacement{VNF: vnf, Assignments: assignments}, true
		}
	}
	return StagePlacement{}, false
}

// updateDuals applies one stage's Eq. (67) updates. The caller must hold
// s.mu on the write side.
func (s *OffsiteScheduler) updateDuals(req Request, st StagePlacement, target, stagePay float64) {
	rf := s.network.Catalog[st.VNF].Reliability
	demand := float64(s.network.Catalog[st.VNF].Demand)
	needWeight := core.RequirementWeight(target)
	for _, a := range st.Assignments {
		w := core.OffsiteWeight(rf, s.network.Cloudlets[a.Cloudlet].Reliability)
		capj := float64(s.network.Cloudlets[a.Cloudlet].Capacity)
		ratio := needWeight * demand / (w * capj)
		s.prices.Update(a.Cloudlet, req.Arrival, req.End(), 1+ratio, ratio*stagePay/float64(req.Duration))
	}
}

// GreedyOnsite is the chain version of the paper's greedy baseline: admit
// everything possible, preferring reliable cloudlets.
type GreedyOnsite struct {
	core.Stateless[Request, Placement]
	network *core.Network
	order   []int
}

// NewGreedyOnsite creates the greedy on-site chain baseline.
func NewGreedyOnsite(network *core.Network, horizon int) (*GreedyOnsite, error) {
	if err := checkNetwork(network, horizon); err != nil {
		return nil, err
	}
	return &GreedyOnsite{network: network, order: network.ByReliability()}, nil
}

// Name implements core.TwoPhase.
func (g *GreedyOnsite) Name() string { return "greedy-chain-onsite" }

// Scheme implements core.TwoPhase.
func (g *GreedyOnsite) Scheme() core.Scheme { return core.OnSite }

// Propose implements core.TwoPhase; it is a pure function of the
// request and the view.
func (g *GreedyOnsite) Propose(req Request, view core.CapacityView) (Placement, bool) {
	if len(req.VNFs) == 0 {
		return Placement{}, false
	}
	for _, j := range g.order {
		cl := g.network.Cloudlets[j]
		alloc, err := OnsiteAllocation(g.network.Catalog, req.VNFs, cl.Reliability, req.Reliability)
		if err != nil {
			break // reliability-sorted: later cloudlets fail too
		}
		units := alloc.Units(g.network.Catalog, req.VNFs)
		if view.ResidualWindow(j, req.Arrival, req.Duration) < units {
			continue
		}
		stages := make([]StagePlacement, len(req.VNFs))
		for k, f := range req.VNFs {
			stages[k] = StagePlacement{
				VNF:         f,
				Assignments: []core.Assignment{{Cloudlet: j, Instances: alloc[k]}},
			}
		}
		return Placement{Request: req.ID, Scheme: core.OnSite, Stages: stages}, true
	}
	return Placement{}, false
}

// GreedyOffsite is the greedy off-site chain baseline: per-stage targets
// R^{1/K}, most reliable cloudlets first.
type GreedyOffsite struct {
	core.Stateless[Request, Placement]
	network *core.Network
	order   []int
}

// NewGreedyOffsite creates the greedy off-site chain baseline.
func NewGreedyOffsite(network *core.Network, horizon int) (*GreedyOffsite, error) {
	if err := checkNetwork(network, horizon); err != nil {
		return nil, err
	}
	return &GreedyOffsite{network: network, order: network.ByReliability()}, nil
}

// Name implements core.TwoPhase.
func (g *GreedyOffsite) Name() string { return "greedy-chain-offsite" }

// Scheme implements core.TwoPhase.
func (g *GreedyOffsite) Scheme() core.Scheme { return core.OffSite }

// Propose implements core.TwoPhase; it is a pure function of the
// request and the view.
func (g *GreedyOffsite) Propose(req Request, view core.CapacityView) (Placement, bool) {
	if len(req.VNFs) == 0 {
		return Placement{}, false
	}
	targets, err := OffsiteStageTargets(req.Reliability, len(req.VNFs))
	if err != nil {
		return Placement{}, false
	}
	used := make(map[int]int, len(g.network.Cloudlets))
	stages := make([]StagePlacement, len(req.VNFs))
	for k, f := range req.VNFs {
		rf := g.network.Catalog[f].Reliability
		demand := g.network.Catalog[f].Demand
		needWeight := core.RequirementWeight(targets[k])
		var assignments []core.Assignment
		totalWeight := 0.0
		for _, j := range g.order {
			if _, taken := used[j]; taken {
				continue // anti-affinity across stages
			}
			if view.ResidualWindow(j, req.Arrival, req.Duration) < demand {
				continue
			}
			assignments = append(assignments, core.Assignment{Cloudlet: j, Instances: 1})
			totalWeight += core.OffsiteWeight(rf, g.network.Cloudlets[j].Reliability)
			if core.MeetsRequirement(totalWeight, needWeight) {
				break
			}
		}
		if !core.MeetsRequirement(totalWeight, needWeight) {
			return Placement{}, false
		}
		for _, a := range assignments {
			used[a.Cloudlet] += demand
		}
		stages[k] = StagePlacement{VNF: f, Assignments: assignments}
	}
	return Placement{Request: req.ID, Scheme: core.OffSite, Stages: stages}, true
}

func checkNetwork(network *core.Network, horizon int) error {
	if network == nil {
		return fmt.Errorf("%w: nil network", ErrBadChain)
	}
	if err := network.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadChain, err)
	}
	if horizon < 1 {
		return fmt.Errorf("%w: horizon %d", ErrBadChain, horizon)
	}
	return nil
}
