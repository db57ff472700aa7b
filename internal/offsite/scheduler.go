// Package offsite implements Algorithm 2 of the paper: the online
// primal-dual heuristic for the VNF service reliability problem under the
// off-site scheme, in which at most one instance of a request is placed in
// each cloudlet and reliability accumulates across the chosen set.
//
// The scheme's nonlinear reliability constraint
// 1 - Π(1 - r(f)·r(c_j)) ≥ R is linearized in the log domain (Section V):
// each cloudlet contributes weight w_j = -ln(1 - r(f)·r(c_j)) and the
// request needs total weight W = -ln(1 - R). The scheduler keeps dual
// prices λ_{tj}, computes each cloudlet's normalized price
// Σ_t V_i[t]·λ_{tj} / w_j, discards cloudlets that fail the payment test
// of line 5, and greedily accumulates the cheapest capacity-feasible
// cloudlets until the weight target is met. Admission updates the touched
// prices per Eq. (67). Unlike raw Algorithm 1, Algorithm 2 never violates
// cloudlet capacities (Theorem 2).
package offsite

import (
	"errors"
	"fmt"
	"sync"

	"revnf/internal/core"
	"revnf/internal/dual"
	"revnf/internal/topology"
	"revnf/internal/trace"
)

// Errors returned by the constructor.
var (
	ErrBadNetwork = errors.New("offsite: invalid network")
	ErrBadHorizon = errors.New("offsite: invalid horizon")
)

// Scheduler is the Algorithm 2 implementation. It implements
// core.Scheduler: Propose reads the dual prices under the read side of a
// reader/writer lock and may run concurrently; Commit applies the Eq. (67)
// updates under the write side, keeping the λ trajectory sequentially
// consistent in Commit order.
type Scheduler struct {
	network *core.Network
	// weight[f][j] caches the off-site weight -ln(1 - r(f)·r(c_j)).
	weight [][]float64
	// mu guards prices: Propose reads, Commit and AdvanceWindow write.
	mu sync.RWMutex
	// prices holds λ_{tj} over the live window, which stays [1, horizon]
	// until AdvanceWindow moves it.
	prices  dual.Table // guarded by mu
	sortKey SortKey
	name    string
	// Latency awareness (WithLatencyPenalty): normalized cloudlet-pair
	// latencies and the penalty weight.
	latencyGraph  *topology.Graph
	latencyWeight float64
	latency       [][]float64
	// rec receives decision traces from Propose; trace.Nop by default.
	rec trace.Recorder
}

// SortKey selects how Algorithm 2 orders candidate cloudlets before the
// greedy accumulation. The paper's rule is SortByPrice; the others are
// ablation knobs isolating the value of dual-price ordering.
type SortKey int

// Candidate orderings.
const (
	// SortByPrice orders by ascending normalized dual price (line 9 of
	// Algorithm 2; the paper's rule).
	SortByPrice SortKey = iota + 1
	// SortByReliability orders by descending cloudlet reliability,
	// mimicking the greedy baseline's preference inside the primal-dual
	// admission test.
	SortByReliability
	// SortByResidual orders by descending residual capacity over the
	// request's window, a load-balancing heuristic.
	SortByResidual
)

// Option configures the scheduler.
type Option func(*Scheduler)

// WithRecorder injects the decision-trace sink Propose emits into. A nil
// recorder keeps the no-op default. Tracing never changes decisions.
func WithRecorder(r trace.Recorder) Option {
	return func(s *Scheduler) {
		if r != nil {
			s.rec = r
		}
	}
}

// WithSortKey overrides the candidate ordering (default SortByPrice).
func WithSortKey(key SortKey) Option {
	return func(s *Scheduler) {
		s.sortKey = key
		switch key {
		case SortByReliability:
			s.name = s.name + "-relsort"
		case SortByResidual:
			s.name = s.name + "-residualsort"
		}
	}
}

// NewScheduler creates an Algorithm 2 scheduler.
func NewScheduler(network *core.Network, horizon int, opts ...Option) (*Scheduler, error) {
	if network == nil {
		return nil, fmt.Errorf("%w: nil", ErrBadNetwork)
	}
	if err := network.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadNetwork, err)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadHorizon, horizon)
	}
	weight := make([][]float64, len(network.Catalog))
	for f, v := range network.Catalog {
		weight[f] = make([]float64, len(network.Cloudlets))
		for j, c := range network.Cloudlets {
			weight[f][j] = core.OffsiteWeight(v.Reliability, c.Reliability)
		}
	}
	s := &Scheduler{
		network: network,
		weight:  weight,
		prices:  dual.NewTable(len(network.Cloudlets), horizon),
		sortKey: SortByPrice,
		name:    "pd-offsite",
		rec:     trace.Nop,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.initLatency(); err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Scheme implements core.Scheduler.
func (s *Scheduler) Scheme() core.Scheme { return core.OffSite }

// Lambda implements core.LambdaReader: the current dual price λ_{tj}, or
// 0 for a slot outside the live window.
func (s *Scheduler) Lambda(cloudlet, slot int) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prices.At(cloudlet, slot)
}

// WindowBase returns the first slot of the live dual-price window (always
// 1 until AdvanceWindow is called).
func (s *Scheduler) WindowBase() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prices.Base()
}

// AdvanceWindow implements core.WindowAdvancer: it moves the dual-price
// window forward so it starts at base. A slot entering at the far edge
// starts at a fresh initial price and in-window prices are untouched (the
// bit-identity argument of DESIGN.md §10). Moving backward or not at all is
// a no-op.
func (s *Scheduler) AdvanceWindow(base int) {
	s.mu.Lock()
	s.prices.Advance(base)
	s.mu.Unlock()
}

// candidate is one cloudlet surviving the payment filter.
type candidate struct {
	cloudlet int
	price    float64 // Σ_t λ_{tj} / w_j, with w_j = -ln(1 - r(f)·r(c_j))
	key      float64 // ascending selection key: price unless keyCandidates sets it
}

// selectLeast moves the candidate that comes first in the greedy's visiting
// order — ascending key, ties broken by cloudlet ID, a total order — to the
// head of the slice: one step of a selection sort. Called on
// candidates[i:] for i = 0, 1, ..., it leaves the visited prefix in
// ascending order while the greedy pays only for the positions it visits,
// usually two or three of the network's cloudlets, not a sort of all of
// them. Keys are never NaN: every weight is positive and finite, since
// Network.Validate holds every reliability inside (0, 1).
func selectLeast(candidates []candidate) {
	least := 0
	key, cloudlet := candidates[0].key, candidates[0].cloudlet
	for k := 1; k < len(candidates); k++ {
		if c := &candidates[k]; c.key < key || c.key == key && c.cloudlet < cloudlet {
			least, key, cloudlet = k, c.key, c.cloudlet
		}
	}
	candidates[0], candidates[least] = candidates[least], candidates[0]
}

// stackCloudlets is the network size up to which Propose keeps its
// candidate scratch on the stack.
const stackCloudlets = 32

// keyCandidates re-keys the candidates for an ablation ordering (line 9 of
// Algorithm 2 orders by the paper's rule, ascending normalized price, the
// key a candidate starts with). Each key is read once, before the first
// selection — the residual ordering must not consult a ledger that
// concurrent admissions are changing from inside a comparison.
func (s *Scheduler) keyCandidates(candidates []candidate, req core.Request, view core.CapacityView) {
	switch s.sortKey {
	case SortByReliability:
		for i := range candidates {
			candidates[i].key = -s.network.Cloudlets[candidates[i].cloudlet].Reliability
		}
	case SortByResidual:
		for i := range candidates {
			candidates[i].key = -float64(view.ResidualWindow(candidates[i].cloudlet, req.Arrival, req.Duration))
		}
	}
}

// Decide implements core.TwoPhaseScheduler: the serialized form of lines
// 3–23 of Algorithm 2.
func (s *Scheduler) Decide(req core.Request, view core.CapacityView) (core.Placement, bool) {
	return core.Decide(s, req, view)
}

// Propose implements core.Scheduler: the payment filter, candidate
// ordering, and greedy weight accumulation of Algorithm 2, reading the
// dual prices under the read lock and leaving scheduler state untouched.
// Its working set lives on its own stack (networks of up to stackCloudlets
// cloudlets), so a declined request allocates nothing and an admitted one
// only its placement's assignments. The greedy selects the next candidate
// only when the weights still fall short, and files the chosen ones into
// the prefix it has visited, so the chosen set needs no scratch of its own.
func (s *Scheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := s.rec.Sample(req.ID)
	vnf := s.network.Catalog[req.VNF]
	needWeight := core.RequirementWeight(req.Reliability)
	demand := float64(vnf.Demand)
	var candBuf [stackCloudlets]candidate
	candidates := candBuf[:0]
	if m := len(s.network.Cloudlets); m > stackCloudlets {
		candidates = make([]candidate, 0, m)
	}
	// cands[j] is cloudlet j's trace entry (indexed by cloudlet, so the
	// accumulation loop can mark skips/chosen after selection reorders the
	// working set).
	var cands []trace.Candidate
	if tracing {
		cands = make([]trace.Candidate, len(s.network.Cloudlets))
	}
	s.mu.RLock()
	// The window check lives inside the same read-side critical section as
	// the candidate scan so one proposal sees one consistent base even
	// while AdvanceWindow races it.
	if !s.prices.Contains(req.Arrival, req.End()) {
		s.mu.RUnlock()
		if tracing {
			trace.RecordHorizon(s.rec, req, s.name, core.OffSite)
		}
		return core.Placement{}, false
	}
	for j := range s.network.Cloudlets {
		w := s.weight[req.VNF][j]
		price := s.prices.Sum(j, req.Arrival, req.End(), 1) / w
		if tracing {
			cands[j] = trace.Candidate{Cloudlet: j, Weight: w, DualCost: price}
		}
		// Payment filter (line 5): place no instance at cloudlets whose
		// dual cost already exceeds the request's value:
		// pay + ln(1-R)·c(f)·price ≤ 0  ⇔  pay ≤ W·c(f)·price.
		if req.Payment-needWeight*demand*price <= 0 {
			if tracing {
				cands[j].Skip = trace.SkipPricedOut
			}
			continue
		}
		candidates = append(candidates, candidate{cloudlet: j, price: price, key: price})
	}
	s.mu.RUnlock()
	s.keyCandidates(candidates, req, view)
	// candidates[:next] are already in visiting order.
	next := 0
	if s.latency != nil {
		next = s.anchorPrimary(candidates, req, view, vnf.Demand)
	}
	// Accumulate capacity-feasible cloudlets until the reliability weight
	// target is reached (lines 10–17). The chosen ones are compacted into
	// candidates[:chosen], behind the position being visited.
	totalWeight, chosen := 0.0, 0
	for i := range candidates {
		if i >= next {
			selectLeast(candidates[i:])
		}
		c := candidates[i]
		resid := view.ResidualWindow(c.cloudlet, req.Arrival, req.Duration)
		if tracing {
			cands[c.cloudlet].Residual = resid
		}
		if resid < vnf.Demand {
			if tracing {
				cands[c.cloudlet].Skip = trace.SkipCapacity
			}
			continue
		}
		candidates[chosen] = c
		chosen++
		totalWeight += s.weight[req.VNF][c.cloudlet]
		if tracing {
			cands[c.cloudlet].Instances = 1
			cands[c.cloudlet].Chosen = true
		}
		if core.MeetsRequirement(totalWeight, needWeight) {
			break
		}
	}
	admit := core.MeetsRequirement(totalWeight, needWeight)
	var assignments []core.Assignment
	if admit {
		assignments = make([]core.Assignment, chosen)
		for i, c := range candidates[:chosen] {
			assignments[i] = core.Assignment{Cloudlet: c.cloudlet, Instances: 1}
		}
	}
	if tracing {
		// The admission test is weight accumulation, not one argmin: the
		// winner is the first cloudlet of the greedy set.
		pt := trace.ProposeTrace{Scheduler: s.name, Scheme: core.OffSite.String(), Candidates: cands,
			BestCloudlet: -1, NeedWeight: needWeight, TotalWeight: totalWeight, Admit: admit}
		if chosen > 0 {
			pt.BestCloudlet, pt.BestCost = candidates[0].cloudlet, candidates[0].price
		}
		trace.RecordAttempt(s.rec, req, pt, assignments)
	}
	if !admit {
		return core.Placement{}, false
	}
	return core.Placement{Request: req.ID, Scheme: core.OffSite, Assignments: assignments}, true
}

// Commit implements core.Scheduler: it applies the Eq. (67) dual
// update to every cloudlet of the admitted proposal under the write lock.
// With W = -ln(1-R) and w_j = -ln(1 - r(f)·r(c_j)), recomputed from the
// scheduler's weights so Commit needs only the placement, the update is
// λ := λ·(1 + W·c(f)/(w_j·cap_j)) + W·c(f)·pay/(w_j·d·cap_j).
func (s *Scheduler) Commit(req core.Request, p core.Placement) {
	needWeight := core.RequirementWeight(req.Reliability)
	demand := float64(s.network.Catalog[req.VNF].Demand)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range p.Assignments {
		capj := float64(s.network.Cloudlets[a.Cloudlet].Capacity)
		ratio := needWeight * demand / (s.weight[req.VNF][a.Cloudlet] * capj)
		s.prices.Update(a.Cloudlet, req.Arrival, req.End(), 1+ratio, ratio*req.Payment/float64(req.Duration))
	}
}

// Abort implements core.Scheduler. Propose acquires nothing, so
// aborting a proposal is a no-op.
func (s *Scheduler) Abort(core.Request, core.Placement) {}

// ConcurrentPropose implements core.Scheduler: proposals only read
// λ under the read lock and may run concurrently.
func (s *Scheduler) ConcurrentPropose() bool { return true }
