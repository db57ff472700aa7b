// Package onsite implements Algorithm 1 of the paper: the online
// primal-dual scheduler for the VNF service reliability problem under the
// on-site scheme, in which all primary and backup instances of a request
// are hosted by a single cloudlet.
//
// The scheduler maintains one dual price λ_{tj} per (slot, cloudlet) pair.
// A request is admitted when its payment exceeds the cheapest cloudlet's
// dual cost Σ_t V_i[t]·N_ij·c(f_i)·λ_{tj}; admission multiplies the touched
// prices by (1 + N·c/cap) and adds N·c·pay/(d·cap) (Eq. 34), so heavily
// used slots become expensive and low-value requests are priced out.
//
// Two variants are provided. The raw variant is the theory-faithful
// Algorithm 1: it never inspects residual capacity, achieves the
// (1+a_max)-competitive ratio of Theorem 1, and may overcommit cloudlets
// within the bound ξ of Lemma 8. The enforced variant is the one the paper
// actually evaluates (Section VI-A adopts the scaling approach of [14] so
// "no actual capacity constraint violation occurs"): it restricts the
// argmin to cloudlets with enough residual capacity and optionally scales
// demands in the dual prices.
package onsite

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"revnf/internal/core"
	"revnf/internal/dual"
	"revnf/internal/trace"
)

// Errors returned by the constructor.
var (
	ErrBadNetwork = errors.New("onsite: invalid network")
	ErrBadHorizon = errors.New("onsite: invalid horizon")
	ErrBadScale   = errors.New("onsite: scale factor below 1")
)

// Scheduler is the Algorithm 1 implementation. It implements the
// two-phase propose/commit contract of core.Scheduler: Propose reads the
// dual prices under the read side of a reader/writer lock and is safe to
// run concurrently; Commit applies the λ update of Eq. (34) under the
// write side, so the dual trajectory is sequentially consistent in Commit
// order — the per-request update order the competitive analysis of
// Theorem 1 assumes.
type Scheduler struct {
	network *core.Network
	// rel caches the per-(VNF, cloudlet) instance-count math.
	rel *core.ReliabilityTable
	// mu guards prices: Propose reads, Commit and AdvanceWindow write.
	// Holding the read lock across the whole argmin means one proposal
	// always sees one consistent window position.
	mu sync.RWMutex
	// prices holds λ_{tj} over the live window, which stays [1, horizon]
	// until AdvanceWindow moves it.
	prices   dual.Table // guarded by mu
	enforce  bool
	additive bool
	scale    float64
	name     string
	// rec receives decision traces from Propose; trace.Nop by default, so
	// the hot path pays one interface call when tracing is off. Recording
	// is observability, not state mutation (see the core.TwoPhase
	// contract's carve-out).
	rec trace.Recorder
}

// Option configures the scheduler.
type Option func(*Scheduler)

// WithCapacityEnforcement makes the scheduler skip cloudlets without
// enough residual capacity, so no violation ever occurs. This is the
// variant evaluated in the paper's experiments.
func WithCapacityEnforcement() Option {
	return func(s *Scheduler) { s.enforce = true }
}

// WithScale multiplies instance demands by scale (≥ 1) inside the dual
// prices and the admission test, implementing the demand-scaling idea of
// [14]: larger scales make the dual threshold more conservative. The
// actual reservation still uses the true demand.
func WithScale(scale float64) Option {
	return func(s *Scheduler) { s.scale = scale }
}

// WithRecorder injects the decision-trace sink Propose emits into. A nil
// recorder keeps the no-op default. Tracing never changes decisions: the
// recorder only observes the candidate evaluation Propose performs anyway.
func WithRecorder(r trace.Recorder) Option {
	return func(s *Scheduler) {
		if r != nil {
			s.rec = r
		}
	}
}

// WithAdditiveDuals replaces the multiplicative λ update of Eq. (34) with a
// purely additive one (λ += N·c·pay/(d·cap)). It is an ablation knob: the
// exponential growth of the multiplicative rule is what yields the
// competitive ratio, and the additive variant shows how much that matters.
func WithAdditiveDuals() Option {
	return func(s *Scheduler) { s.additive = true }
}

// NewScheduler creates an Algorithm 1 scheduler. Without options it is the
// raw, theory-faithful variant with bounded capacity violation.
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
	rel, err := core.NewReliabilityTable(network)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadNetwork, err)
	}
	s := &Scheduler{
		network: network,
		rel:     rel,
		prices:  dual.NewTable(len(network.Cloudlets), horizon),
		scale:   1,
		rec:     trace.Nop,
	}
	for _, opt := range opts {
		opt(s)
	}
	// The name follows the options whatever their order.
	s.name = "pd-onsite-raw"
	if s.enforce {
		s.name = "pd-onsite"
	}
	if s.additive {
		s.name += "-additive"
	}
	if s.scale < 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadScale, s.scale)
	}
	return s, nil
}

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Scheme implements core.Scheduler.
func (s *Scheduler) Scheme() core.Scheme { return core.OnSite }

// AllowsViolations implements core.ViolationLicensee: the raw variant,
// which never inspects residual capacity, may overcommit within the bound
// ξ of Lemma 8.
func (s *Scheduler) AllowsViolations() bool { return !s.enforce }

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
// starts at the initial price a fresh horizon would give it and prices of
// slots still inside the window are untouched, which is what keeps
// rolling-mode decisions bit-identical to fixed-horizon decisions for
// in-window request streams (DESIGN.md §10). Moving backward or not at all
// is a no-op.
func (s *Scheduler) AdvanceWindow(base int) {
	s.mu.Lock()
	s.prices.Advance(base)
	s.mu.Unlock()
}

// Decide implements core.TwoPhaseScheduler: the serialized form of lines
// 3–15 of Algorithm 1.
func (s *Scheduler) Decide(req core.Request, view core.CapacityView) (core.Placement, bool) {
	return core.Decide(s, req, view)
}

// Propose implements core.Scheduler: the argmin over cloudlets and
// the payment test of Algorithm 1, reading the dual prices under the read
// lock and leaving all scheduler state untouched. When the recorder
// samples the request, Propose additionally assembles a decision trace —
// extra reads only (the dual cost of capacity-skipped cloudlets, residual
// windows); the admit/reject decision is bit-identical with tracing on or
// off.
func (s *Scheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := s.rec.Sample(req.ID)
	vnf := s.network.Catalog[req.VNF]
	bestCloudlet, bestInstances := -1, 0
	bestPrice := math.Inf(1)
	var cands []trace.Candidate
	if tracing {
		cands = make([]trace.Candidate, 0, len(s.network.Cloudlets))
	}
	s.mu.RLock()
	// The window check lives inside the same read-side critical section as
	// the argmin so one proposal sees one consistent base even while
	// AdvanceWindow races it.
	if !s.prices.Contains(req.Arrival, req.End()) {
		s.mu.RUnlock()
		if tracing {
			trace.RecordHorizon(s.rec, req, s.name, core.OnSite)
		}
		return core.Placement{}, false
	}
	for j := range s.network.Cloudlets {
		residual := 0
		if s.enforce || tracing {
			residual = view.ResidualWindow(j, req.Arrival, req.Duration)
		}
		if s.enforce && !tracing && residual < vnf.Demand {
			// No room for one instance, so none for N ≥ 1: the capacity skip
			// below, taken before N is worked out (a trace records N).
			continue
		}
		n, ok := s.rel.OnsiteInstancesOK(req.VNF, j, req.Reliability)
		if !ok {
			// r(c_j) ≤ R_i: this cloudlet cannot serve the request.
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Skip: trace.SkipReliability})
			}
			continue
		}
		units := n * vnf.Demand
		if s.enforce && residual < units {
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n,
					DualCost: s.priceLocked(j, req, units), Residual: residual,
					Skip: trace.SkipCapacity})
			}
			continue
		}
		price := s.priceLocked(j, req, units)
		if tracing {
			cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n,
				DualCost: price, Residual: residual})
		}
		if price < bestPrice {
			bestPrice, bestCloudlet, bestInstances = price, j, n
		}
	}
	s.mu.RUnlock()
	admit := bestCloudlet >= 0 && req.Payment-bestPrice > 0
	if tracing {
		trace.RecordAttempt(s.rec, req, trace.ProposeTrace{Scheduler: s.name, Scheme: core.OnSite.String(),
			Candidates: cands, BestCloudlet: bestCloudlet, BestCost: bestPrice, Admit: admit},
			[]core.Assignment{{Cloudlet: bestCloudlet, Instances: bestInstances}})
	}
	if !admit {
		return core.Placement{}, false
	}
	return core.Placement{
		Request:     req.ID,
		Scheme:      core.OnSite,
		Assignments: []core.Assignment{{Cloudlet: bestCloudlet, Instances: bestInstances}},
	}, true
}

// priceLocked computes the dual cost Σ_t V_i[t]·N_ij·c(f_i)·λ_{tj} for
// cloudlet j (with demand scaling). Caller holds the read side of mu and
// has checked the request's window is live.
func (s *Scheduler) priceLocked(j int, req core.Request, units int) float64 {
	return s.prices.Sum(j, req.Arrival, req.End(), float64(units)*s.scale)
}

// Commit implements core.Scheduler: it applies the Eq. (34) dual
// update, λ := λ·(1 + u/cap) + u·pay/(d·cap) with u the scaled units, to
// the admitted proposal's cloudlet under the write lock.
func (s *Scheduler) Commit(req core.Request, p core.Placement) {
	if len(p.Assignments) != 1 {
		return
	}
	a := p.Assignments[0]
	capj := float64(s.network.Cloudlets[a.Cloudlet].Capacity)
	units := float64(a.Instances*s.network.Catalog[req.VNF].Demand) * s.scale
	growth := 1 + units/capj
	if s.additive {
		growth = 1
	}
	additive := units * req.Payment / (float64(req.Duration) * capj)
	s.mu.Lock()
	s.prices.Update(a.Cloudlet, req.Arrival, req.End(), growth, additive)
	s.mu.Unlock()
}

// Abort implements core.Scheduler. Propose acquires nothing, so
// aborting a proposal is a no-op.
func (s *Scheduler) Abort(core.Request, core.Placement) {}

// ConcurrentPropose implements core.Scheduler: proposals only read
// λ under the read lock and may run concurrently.
func (s *Scheduler) ConcurrentPropose() bool { return true }
