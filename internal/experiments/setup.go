// Package experiments regenerates the paper's evaluation (Section VI):
// Figure 1(a)/(b) — revenue versus number of requests under the on-site and
// off-site schemes — and Figure 2(a)/(b) — the impact of the payment-rate
// variation H and the cloudlet-reliability variation K. It also provides
// the ablation sweeps called out in DESIGN.md. Each driver returns both a
// renderable table and structured series for programmatic use.
package experiments

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"revnf/internal/baseline"
	"revnf/internal/core"
	"revnf/internal/metrics"
	"revnf/internal/mip"
	"revnf/internal/offline"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/simulate"
	"revnf/internal/topology"
	"revnf/internal/workload"
)

// Errors returned by the drivers.
var (
	ErrBadSetup = errors.New("experiments: invalid setup")
)

// OptimalMode selects how the offline comparator column is computed.
type OptimalMode int

// Comparator modes.
const (
	// OptimalNone omits the offline column.
	OptimalNone OptimalMode = iota + 1
	// OptimalLPBound uses the LP-relaxation upper bound: cheap and always
	// an overestimate of the true offline optimum.
	OptimalLPBound
	// OptimalBB uses branch and bound with the setup's node budget: a
	// feasible offline schedule (a lower estimate when the budget stops
	// the search early).
	OptimalBB
)

// Setup is the shared experiment configuration. The defaults mirror the
// paper's environment (Section VI-A) at a scale the from-scratch simplex
// comparator can handle; the cmd/experiments flags expose every knob.
type Setup struct {
	// Topology is the embedded access-network name.
	Topology string
	// Cloudlets is the fleet size; cloudlets sit at the best-connected APs.
	Cloudlets int
	// CapMin and CapMax bound per-cloudlet capacity in computing units.
	CapMin, CapMax int
	// RCMax is the maximum cloudlet reliability rc_max.
	RCMax float64
	// K is the cloudlet reliability variation rc_max/rc_min.
	K float64
	// Horizon is the number of time slots T.
	Horizon int
	// Requests is the trace length for the fixed-load figures (2a, 2b).
	Requests int
	// MinDur and MaxDur bound request durations.
	MinDur, MaxDur int
	// ReqMin and ReqMax bound reliability requirements. Keep ReqMax below
	// RCMax/K to preserve the paper's on-site feasibility assumption.
	ReqMin, ReqMax float64
	// PRMax is the maximum payment rate pr_max.
	PRMax float64
	// H is the payment-rate variation pr_max/pr_min.
	H float64
	// Seeds are the per-point replication seeds; results are averaged.
	Seeds []int64
	// Optimal selects the offline comparator column.
	Optimal OptimalMode
	// OptNodes is the branch-and-bound node budget for OptimalBB.
	OptNodes int
}

// DefaultSetup returns the laptop-scale mirror of the paper's environment:
// NSFNET topology, 10 VNF types with reliabilities in [0.9, 0.9999] and
// demands 1–3 (the [15] catalog), randomly capacitated cloudlets, uniform
// payment rates.
func DefaultSetup() Setup {
	// Capacities are sized so that the 100→800 request sweep moves the
	// network from abundance into heavy contention — the regime of the
	// paper's Figure 1, where the primal-dual algorithms' selectivity
	// overtakes greedy admission. H defaults to 10 (the top of the paper's
	// Figure 2(a) sweep) so payment rates are heterogeneous enough for
	// selectivity to matter.
	return Setup{
		Topology:  topology.NSFNET,
		Cloudlets: 8,
		CapMin:    5,
		CapMax:    10,
		RCMax:     0.999,
		K:         1.05,
		Horizon:   60,
		Requests:  400,
		MinDur:    1,
		MaxDur:    10,
		ReqMin:    0.90,
		ReqMax:    0.95,
		PRMax:     10,
		H:         10,
		Seeds:     []int64{1, 2, 3},
		Optimal:   OptimalLPBound,
		OptNodes:  200,
	}
}

// Validate checks the setup. The remaining numeric ranges are validated by
// the workload constructors when instances are materialized.
func (s Setup) Validate() error {
	if len(s.Seeds) == 0 {
		return fmt.Errorf("%w: no seeds", ErrBadSetup)
	}
	switch s.Optimal {
	case OptimalNone, OptimalLPBound, OptimalBB:
	default:
		return fmt.Errorf("%w: optimal mode %d", ErrBadSetup, int(s.Optimal))
	}
	return nil
}

// checkOnsiteFeasibility enforces the paper's on-site assumption
// r(c_j) > R_i for all pairs: the generated rc_min must exceed the largest
// possible requirement. Off-site sweeps do not need it because reliability
// accumulates across cloudlets.
func (s Setup) checkOnsiteFeasibility(k float64) error {
	if s.ReqMax >= s.RCMax/k {
		return fmt.Errorf("%w: ReqMax %v ≥ rc_min %v breaks the on-site feasibility assumption",
			ErrBadSetup, s.ReqMax, s.RCMax/k)
	}
	return nil
}

// Instance materializes one reproducible instance with the given request
// count and H/K overrides.
func (s Setup) Instance(requests int, h, k float64, seed int64) (*workload.Instance, error) {
	cfg := workload.InstanceConfig{
		TopologyName: s.Topology,
		Cloudlets: workload.CloudletConfig{
			Count:          s.Cloudlets,
			MinCapacity:    s.CapMin,
			MaxCapacity:    s.CapMax,
			MaxReliability: s.RCMax,
			K:              k,
		},
		Trace: workload.TraceConfig{
			Requests:       requests,
			Horizon:        s.Horizon,
			MinDuration:    s.MinDur,
			MaxDuration:    s.MaxDur,
			MinRequirement: s.ReqMin,
			MaxRequirement: s.ReqMax,
			MaxPaymentRate: s.PRMax,
			H:              h,
		},
	}
	return workload.NewInstance(cfg, seed)
}

// LoadOrGenerate is the commands' instance source: the instance stored at
// path, or, when path is empty, one generated from DefaultSetup with the
// non-zero topology, cloudlet-count and horizon overrides. Generation
// draws the cloudlets before the trace, so the same overrides and seed
// yield the same network whatever the request count.
func LoadOrGenerate(path, topo string, cloudlets, requests, horizon int, seed int64) (*workload.Instance, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open instance: %w", err)
		}
		defer func() {
			_ = f.Close() // read-only descriptor; nothing to report
		}()
		return workload.LoadInstance(f)
	}
	setup := DefaultSetup()
	if topo != "" {
		setup.Topology = topo
	}
	if cloudlets > 0 {
		setup.Cloudlets = cloudlets
	}
	if horizon > 0 {
		setup.Horizon = horizon
	}
	return setup.Instance(requests, setup.H, setup.K, seed)
}

// schedulerFactory builds a fresh scheduler per instance (dual state must
// not leak across runs).
type schedulerFactory struct {
	name  string
	build func(inst *workload.Instance) (core.Scheduler, error)
}

func onsiteFactories() []schedulerFactory {
	return []schedulerFactory{
		{
			name: "pd-onsite",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return onsite.NewScheduler(inst.Network, inst.Horizon, onsite.WithCapacityEnforcement())
			},
		},
		{
			name: "greedy-onsite",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return baseline.NewGreedyOnsite(inst.Network)
			},
		},
	}
}

func offsiteFactories() []schedulerFactory {
	return []schedulerFactory{
		{
			name: "pd-offsite",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return offsite.NewScheduler(inst.Network, inst.Horizon)
			},
		},
		{
			name: "greedy-offsite",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return baseline.NewGreedyOffsite(inst.Network)
			},
		},
	}
}

// runPoint simulates every factory on every seed at one sweep point and
// returns per-algorithm revenue summaries plus the offline column. Seeds
// run concurrently: each seed's instance, schedulers and comparator are
// independent, and the expensive part (the offline LP) parallelizes
// perfectly.
func (s Setup) runPoint(requests int, h, k float64, factories []schedulerFactory, scheme core.Scheme) (map[string]metrics.Summary, error) {
	type seedResult struct {
		revenues map[string]float64
		err      error
	}
	results := make([]seedResult, len(s.Seeds))
	var wg sync.WaitGroup
	for idx, seed := range s.Seeds {
		wg.Add(1)
		go func(idx int, seed int64) {
			defer wg.Done()
			revenues := make(map[string]float64, len(factories)+1)
			inst, err := s.Instance(requests, h, k, seed)
			if err != nil {
				results[idx] = seedResult{err: err}
				return
			}
			for _, f := range factories {
				sched, err := f.build(inst)
				if err != nil {
					results[idx] = seedResult{err: fmt.Errorf("experiments: build %s: %w", f.name, err)}
					return
				}
				res, err := simulate.Run(inst, sched)
				if err != nil {
					results[idx] = seedResult{err: fmt.Errorf("experiments: run %s: %w", f.name, err)}
					return
				}
				revenues[f.name] = res.Revenue
			}
			if s.Optimal != OptimalNone {
				opt, err := s.offlineRevenue(inst, scheme)
				if err != nil {
					results[idx] = seedResult{err: err}
					return
				}
				revenues[s.optimalLabel()] = opt
			}
			results[idx] = seedResult{revenues: revenues}
		}(idx, seed)
	}
	wg.Wait()
	perAlgorithm := make(map[string][]float64, len(factories)+1)
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for name, revenue := range r.revenues {
			perAlgorithm[name] = append(perAlgorithm[name], revenue)
		}
	}
	out := make(map[string]metrics.Summary, len(perAlgorithm))
	for name, xs := range perAlgorithm {
		out[name] = metrics.Summarize(xs)
	}
	return out, nil
}

func (s Setup) optimalLabel() string {
	if s.Optimal == OptimalBB {
		return "optimal(bb)"
	}
	return "optimal(lp-bound)"
}

func (s Setup) offlineRevenue(inst *workload.Instance, scheme core.Scheme) (float64, error) {
	switch s.Optimal {
	case OptimalLPBound:
		if scheme == core.OnSite {
			return offline.LPBoundOnsite(inst)
		}
		return offline.LPBoundOffsite(inst)
	case OptimalBB:
		cfg := mip.Config{MaxNodes: s.OptNodes}
		if scheme == core.OnSite {
			sol, err := offline.SolveOnsite(inst, cfg)
			if err != nil {
				return 0, err
			}
			return sol.Revenue, nil
		}
		sol, err := offline.SolveOffsite(inst, cfg)
		if err != nil {
			return 0, err
		}
		return sol.Revenue, nil
	default:
		return 0, nil
	}
}

// algorithmOrder fixes column order: factories first, then the offline
// comparator.
func (s Setup) algorithmOrder(factories []schedulerFactory) []string {
	names := make([]string, 0, len(factories)+1)
	for _, f := range factories {
		names = append(names, f.name)
	}
	if s.Optimal != OptimalNone {
		names = append(names, s.optimalLabel())
	}
	return names
}
