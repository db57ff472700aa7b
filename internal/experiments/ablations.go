package experiments

import (
	"fmt"
	"strconv"

	"revnf/internal/core"
	"revnf/internal/metrics"
	"revnf/internal/mip"
	"revnf/internal/offline"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/simulate"
	"revnf/internal/workload"
)

// AblationScale sweeps the demand-scaling factor of Algorithm 1 (the [14]
// idea the paper adopts to avoid violations): for each scale it reports the
// raw variant's revenue and worst capacity overcommitment, and the
// enforced variant's revenue. Larger scales price capacity more
// conservatively — fewer violations, less revenue.
func (s Setup) AblationScale(scales []float64) (*metrics.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkOnsiteFeasibility(s.K); err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title: fmt.Sprintf("Ablation — Algorithm 1 demand scaling (requests=%d, seeds=%d)",
			s.Requests, len(s.Seeds)),
		Header: []string{"scale", "raw revenue", "raw max-violation", "enforced revenue"},
	}
	for _, scale := range scales {
		var rawRev, rawViol, enfRev []float64
		for _, seed := range s.Seeds {
			inst, err := s.Instance(s.Requests, s.H, s.K, seed)
			if err != nil {
				return nil, err
			}
			raw, err := onsite.NewScheduler(inst.Network, inst.Horizon, onsite.WithScale(scale))
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			rawRes, err := simulate.Run(inst, raw)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			rawRev = append(rawRev, rawRes.Revenue)
			rawViol = append(rawViol, rawRes.MaxViolationRatio)
			enf, err := onsite.NewScheduler(inst.Network, inst.Horizon,
				onsite.WithCapacityEnforcement(), onsite.WithScale(scale))
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			enfRes, err := simulate.Run(inst, enf)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			enfRev = append(enfRev, enfRes.Revenue)
		}
		table.AddRow(
			formatFloat2(scale),
			metrics.FormatMeanCI(metrics.Summarize(rawRev)),
			strconv.FormatFloat(metrics.Summarize(rawViol).Mean, 'f', 2, 64),
			metrics.FormatMeanCI(metrics.Summarize(enfRev)),
		)
	}
	return table, nil
}

// AblationDualUpdate compares the multiplicative λ update of Eq. (34) —
// the source of the competitive ratio — against a purely additive update,
// across request loads.
func (s Setup) AblationDualUpdate(requestCounts []int) (*FigureResult, error) {
	if err := s.checkOnsiteFeasibility(s.K); err != nil {
		return nil, err
	}
	factories := []schedulerFactory{
		{
			name: "pd-onsite",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return onsite.NewScheduler(inst.Network, inst.Horizon, onsite.WithCapacityEnforcement())
			},
		},
		{
			name: "pd-onsite-additive",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return onsite.NewScheduler(inst.Network, inst.Horizon, onsite.WithCapacityEnforcement(), onsite.WithAdditiveDuals())
			},
		},
	}
	xs := toFloats(requestCounts)
	return s.sweep("ablation-dual", "requests", xs, factories, core.OnSite, func(x float64) (map[string]metrics.Summary, error) {
		return s.runPoint(int(x), s.H, s.K, factories, core.OnSite)
	}, formatInt)
}

// AblationSortKey compares Algorithm 2's dual-price candidate ordering
// against reliability-first and residual-capacity-first orderings.
func (s Setup) AblationSortKey(requestCounts []int) (*FigureResult, error) {
	factories := []schedulerFactory{
		{
			name: "pd-offsite",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return offsite.NewScheduler(inst.Network, inst.Horizon)
			},
		},
		{
			name: "pd-offsite-relsort",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return offsite.NewScheduler(inst.Network, inst.Horizon, offsite.WithSortKey(offsite.SortByReliability))
			},
		},
		{
			name: "pd-offsite-residualsort",
			build: func(inst *workload.Instance) (core.Scheduler, error) {
				return offsite.NewScheduler(inst.Network, inst.Horizon, offsite.WithSortKey(offsite.SortByResidual))
			},
		},
	}
	xs := toFloats(requestCounts)
	return s.sweep("ablation-sort", "requests", xs, factories, core.OffSite, func(x float64) (map[string]metrics.Summary, error) {
		return s.runPoint(int(x), s.H, s.K, factories, core.OffSite)
	}, formatInt)
}

// AblationOptBudget fixes one instance and sweeps the branch-and-bound
// node budget, reporting incumbent, upper bound and gap: how much search
// the CPLEX substitute needs before the bracket closes.
func (s Setup) AblationOptBudget(budgets []int) (*metrics.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkOnsiteFeasibility(s.K); err != nil {
		return nil, err
	}
	inst, err := s.Instance(s.Requests, s.H, s.K, s.Seeds[0])
	if err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title: fmt.Sprintf("Ablation — offline B&B node budget (on-site, requests=%d, seed=%d)",
			s.Requests, s.Seeds[0]),
		Header: []string{"nodes budget", "nodes used", "status", "incumbent", "upper bound", "gap"},
	}
	for _, budget := range budgets {
		sol, err := offline.SolveOnsite(inst, mip.Config{MaxNodes: budget})
		if err != nil {
			return nil, err
		}
		table.AddRow(
			strconv.Itoa(budget),
			strconv.Itoa(sol.Nodes),
			sol.Status.String(),
			metrics.FormatFloat(sol.Revenue),
			metrics.FormatFloat(sol.UpperBound),
			strconv.FormatFloat(sol.Gap(), 'f', 4, 64),
		)
	}
	return table, nil
}
