// Package baseline provides the comparison schedulers of the paper's
// evaluation, plus simple extra baselines used in ablations. The paper's
// greedy benchmark "always tries to admit all coming requests by
// preferring to place VNF instances in cloudlets with high reliabilities"
// (Section VI-A); it never reasons about opportunity cost, which is
// exactly what the primal-dual algorithms add.
//
// Every baseline implements core.Scheduler by embedding
// core.Stateless: their Propose methods are pure functions of (request,
// capacity view) — no dual prices, no learned state — so Commit and Abort
// are no-ops and concurrent Propose is trivially safe. The one exception is
// RandomOnsite, whose RNG draw order is observable: it overrides
// ConcurrentPropose to false.
package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"revnf/internal/core"
	"revnf/internal/trace"
)

// Errors returned by constructors.
var (
	ErrBadNetwork = errors.New("baseline: invalid network")
)

// options collects optional constructor configuration shared by every
// baseline scheduler.
type options struct {
	rec trace.Recorder
}

// Option configures a baseline scheduler.
type Option func(*options)

// WithRecorder injects the decision-trace sink Propose emits into. A nil
// recorder keeps the no-op default. Tracing never changes decisions.
func WithRecorder(r trace.Recorder) Option {
	return func(o *options) {
		if r != nil {
			o.rec = r
		}
	}
}

// applyOptions folds opts over the defaults.
func applyOptions(opts []Option) options {
	o := options{rec: trace.Nop}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// GreedyOnsite admits every request it can, choosing the most reliable
// cloudlet with sufficient residual capacity (on-site scheme).
type GreedyOnsite struct {
	core.Stateless[core.Request, core.Placement]
	network *core.Network
	rel     *core.ReliabilityTable
	// order is the cloudlet IDs sorted by reliability descending.
	order []int
	rec   trace.Recorder
}

// NewGreedyOnsite creates the paper's greedy on-site baseline.
func NewGreedyOnsite(network *core.Network, opts ...Option) (*GreedyOnsite, error) {
	rel, err := buildTable(network)
	if err != nil {
		return nil, err
	}
	o := applyOptions(opts)
	return &GreedyOnsite{network: network, rel: rel, order: network.ByReliability(), rec: o.rec}, nil
}

// Name implements core.Scheduler.
func (g *GreedyOnsite) Name() string { return "greedy-onsite" }

// Scheme implements core.Scheduler.
func (g *GreedyOnsite) Scheme() core.Scheme { return core.OnSite }

// Propose implements core.Scheduler; it is a pure function of the
// request and the view.
func (g *GreedyOnsite) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := g.rec.Sample(req.ID)
	var cands []trace.Candidate
	vnf := g.network.Catalog[req.VNF]
	for _, j := range g.order {
		n, ok := g.rel.OnsiteInstancesOK(req.VNF, j, req.Reliability)
		if !ok {
			// Cloudlets are reliability-sorted: all later ones fail too.
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Skip: trace.SkipReliability})
			}
			break
		}
		resid := view.ResidualWindow(j, req.Arrival, req.Duration)
		if resid < n*vnf.Demand {
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n,
					Residual: resid, Skip: trace.SkipCapacity})
			}
			continue
		}
		assignments := []core.Assignment{{Cloudlet: j, Instances: n}}
		if tracing {
			cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n, Residual: resid})
			trace.RecordAttempt(g.rec, req, trace.ProposeTrace{Scheduler: g.Name(), Scheme: core.OnSite.String(),
				Candidates: cands, BestCloudlet: j, Admit: true}, assignments)
		}
		return core.Placement{Request: req.ID, Scheme: core.OnSite, Assignments: assignments}, true
	}
	if tracing {
		trace.RecordAttempt(g.rec, req, trace.ProposeTrace{Scheduler: g.Name(), Scheme: core.OnSite.String(),
			Candidates: cands, BestCloudlet: -1}, nil)
	}
	return core.Placement{}, false
}

// GreedyOffsite admits every request it can, accumulating the most
// reliable cloudlets with space until the reliability requirement is met
// (off-site scheme).
type GreedyOffsite struct {
	core.Stateless[core.Request, core.Placement]
	network *core.Network
	order   []int
	rec     trace.Recorder
}

// NewGreedyOffsite creates the paper's greedy off-site baseline.
func NewGreedyOffsite(network *core.Network, opts ...Option) (*GreedyOffsite, error) {
	if err := validate(network); err != nil {
		return nil, err
	}
	o := applyOptions(opts)
	return &GreedyOffsite{network: network, order: network.ByReliability(), rec: o.rec}, nil
}

// Name implements core.Scheduler.
func (g *GreedyOffsite) Name() string { return "greedy-offsite" }

// Scheme implements core.Scheduler.
func (g *GreedyOffsite) Scheme() core.Scheme { return core.OffSite }

// Propose implements core.Scheduler; it is a pure function of the
// request and the view.
func (g *GreedyOffsite) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := g.rec.Sample(req.ID)
	var cands []trace.Candidate
	vnf := g.network.Catalog[req.VNF]
	needWeight := core.RequirementWeight(req.Reliability)
	totalWeight := 0.0
	var assignments []core.Assignment
	for _, j := range g.order {
		w := core.OffsiteWeight(vnf.Reliability, g.network.Cloudlets[j].Reliability)
		resid := view.ResidualWindow(j, req.Arrival, req.Duration)
		if resid < vnf.Demand {
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j,
					Weight: w, Residual: resid, Skip: trace.SkipCapacity})
			}
			continue
		}
		assignments = append(assignments, core.Assignment{Cloudlet: j, Instances: 1})
		totalWeight += w
		if tracing {
			cands = append(cands, trace.Candidate{Cloudlet: j, Instances: 1,
				Weight: w, Residual: resid, Chosen: true})
		}
		if core.MeetsRequirement(totalWeight, needWeight) {
			break
		}
	}
	admit := core.MeetsRequirement(totalWeight, needWeight)
	if tracing {
		pt := trace.ProposeTrace{Scheduler: g.Name(), Scheme: core.OffSite.String(), Candidates: cands,
			BestCloudlet: -1, NeedWeight: needWeight, TotalWeight: totalWeight, Admit: admit}
		if len(assignments) > 0 {
			pt.BestCloudlet = assignments[0].Cloudlet
		}
		trace.RecordAttempt(g.rec, req, pt, assignments)
	}
	if !admit {
		return core.Placement{}, false
	}
	return core.Placement{Request: req.ID, Scheme: core.OffSite, Assignments: assignments}, true
}

// FirstFitOnsite places each request in the lowest-ID feasible cloudlet.
// It ignores reliability ordering entirely and serves as an ablation
// baseline isolating the value of reliability awareness.
type FirstFitOnsite struct {
	core.Stateless[core.Request, core.Placement]
	network *core.Network
	rel     *core.ReliabilityTable
	rec     trace.Recorder
}

// NewFirstFitOnsite creates the first-fit baseline.
func NewFirstFitOnsite(network *core.Network, opts ...Option) (*FirstFitOnsite, error) {
	rel, err := buildTable(network)
	if err != nil {
		return nil, err
	}
	o := applyOptions(opts)
	return &FirstFitOnsite{network: network, rel: rel, rec: o.rec}, nil
}

// Name implements core.Scheduler.
func (f *FirstFitOnsite) Name() string { return "firstfit-onsite" }

// Scheme implements core.Scheduler.
func (f *FirstFitOnsite) Scheme() core.Scheme { return core.OnSite }

// Propose implements core.Scheduler; it is a pure function of the
// request and the view.
func (f *FirstFitOnsite) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := f.rec.Sample(req.ID)
	var cands []trace.Candidate
	vnf := f.network.Catalog[req.VNF]
	for j := range f.network.Cloudlets {
		n, ok := f.rel.OnsiteInstancesOK(req.VNF, j, req.Reliability)
		if !ok {
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Skip: trace.SkipReliability})
			}
			continue
		}
		resid := view.ResidualWindow(j, req.Arrival, req.Duration)
		if resid < n*vnf.Demand {
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n,
					Residual: resid, Skip: trace.SkipCapacity})
			}
			continue
		}
		assignments := []core.Assignment{{Cloudlet: j, Instances: n}}
		if tracing {
			cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n, Residual: resid})
			trace.RecordAttempt(f.rec, req, trace.ProposeTrace{Scheduler: f.Name(), Scheme: core.OnSite.String(),
				Candidates: cands, BestCloudlet: j, Admit: true}, assignments)
		}
		return core.Placement{Request: req.ID, Scheme: core.OnSite, Assignments: assignments}, true
	}
	if tracing {
		trace.RecordAttempt(f.rec, req, trace.ProposeTrace{Scheduler: f.Name(), Scheme: core.OnSite.String(),
			Candidates: cands, BestCloudlet: -1}, nil)
	}
	return core.Placement{}, false
}

// RandomOnsite places each request in a uniformly random feasible
// cloudlet. It lower-bounds what any sensible on-site policy should earn.
type RandomOnsite struct {
	core.Stateless[core.Request, core.Placement]
	network *core.Network
	rel     *core.ReliabilityTable
	// mu keeps a misused concurrent Propose race-free, but the scheduler
	// still reports ConcurrentPropose() == false: an interleaving-dependent
	// draw order would break the seeded reproducibility the injected RNG
	// exists to provide.
	mu  sync.Mutex
	rng *rand.Rand
	rec trace.Recorder
}

// NewRandomOnsite creates the random baseline with an injected RNG for
// reproducibility.
func NewRandomOnsite(network *core.Network, rng *rand.Rand, opts ...Option) (*RandomOnsite, error) {
	rel, err := buildTable(network)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil RNG", ErrBadNetwork)
	}
	o := applyOptions(opts)
	return &RandomOnsite{network: network, rel: rel, rng: rng, rec: o.rec}, nil
}

// Name implements core.Scheduler.
func (r *RandomOnsite) Name() string { return "random-onsite" }

// Scheme implements core.Scheduler.
func (r *RandomOnsite) Scheme() core.Scheme { return core.OnSite }

// Propose implements core.Scheduler. The RNG draw happens under
// the scheduler's mutex; everything else is pure.
func (r *RandomOnsite) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := r.rec.Sample(req.ID)
	var cands []trace.Candidate
	vnf := r.network.Catalog[req.VNF]
	type option struct{ cloudlet, instances int }
	var choices []option
	for j := range r.network.Cloudlets {
		n, ok := r.rel.OnsiteInstancesOK(req.VNF, j, req.Reliability)
		if !ok {
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Skip: trace.SkipReliability})
			}
			continue
		}
		resid := view.ResidualWindow(j, req.Arrival, req.Duration)
		if resid < n*vnf.Demand {
			if tracing {
				cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n,
					Residual: resid, Skip: trace.SkipCapacity})
			}
			continue
		}
		choices = append(choices, option{cloudlet: j, instances: n})
		if tracing {
			cands = append(cands, trace.Candidate{Cloudlet: j, Instances: n, Residual: resid})
		}
	}
	if len(choices) == 0 {
		if tracing {
			trace.RecordAttempt(r.rec, req, trace.ProposeTrace{Scheduler: r.Name(), Scheme: core.OnSite.String(),
				Candidates: cands, BestCloudlet: -1}, nil)
		}
		return core.Placement{}, false
	}
	r.mu.Lock()
	pick := choices[r.rng.Intn(len(choices))]
	r.mu.Unlock()
	assignments := []core.Assignment{{Cloudlet: pick.cloudlet, Instances: pick.instances}}
	if tracing {
		trace.RecordAttempt(r.rec, req, trace.ProposeTrace{Scheduler: r.Name(), Scheme: core.OnSite.String(),
			Candidates: cands, BestCloudlet: pick.cloudlet, Admit: true}, assignments)
	}
	return core.Placement{Request: req.ID, Scheme: core.OnSite, Assignments: assignments}, true
}

// ConcurrentPropose overrides core.Stateless. The draw order of
// the shared RNG is part of the observable behaviour (a seed must
// reproduce a trace), so proposals may not interleave.
func (r *RandomOnsite) ConcurrentPropose() bool { return false }

// RejectAll rejects everything; it anchors the revenue floor in sanity
// checks.
type RejectAll struct {
	core.Stateless[core.Request, core.Placement]
	scheme core.Scheme
}

// NewRejectAll creates the reject-everything baseline for the scheme.
func NewRejectAll(scheme core.Scheme) (*RejectAll, error) {
	if !scheme.Valid() {
		return nil, fmt.Errorf("%w: scheme %d", ErrBadNetwork, int(scheme))
	}
	return &RejectAll{scheme: scheme}, nil
}

// Name implements core.Scheduler.
func (r *RejectAll) Name() string { return "reject-all" }

// Scheme implements core.Scheduler.
func (r *RejectAll) Scheme() core.Scheme { return r.scheme }

// Propose implements core.Scheduler.
func (r *RejectAll) Propose(core.Request, core.CapacityView) (core.Placement, bool) {
	return core.Placement{}, false
}

func validate(network *core.Network) error {
	if network == nil {
		return fmt.Errorf("%w: nil", ErrBadNetwork)
	}
	if err := network.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadNetwork, err)
	}
	return nil
}

// buildTable validates the network and precomputes its reliability table.
func buildTable(network *core.Network) (*core.ReliabilityTable, error) {
	if err := validate(network); err != nil {
		return nil, err
	}
	rel, err := core.NewReliabilityTable(network)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadNetwork, err)
	}
	return rel, nil
}
