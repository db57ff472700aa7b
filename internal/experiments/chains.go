package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/metrics"
	"revnf/internal/mip"
	"revnf/internal/offline"
	"revnf/internal/simulate"
	"revnf/internal/topology"
	"revnf/internal/workload"
)

// ChainComparison sweeps chain-request load and compares the chain
// variants of the primal-dual and greedy schedulers under both schemes,
// with the offline chain bound as reference (the SFC extension's analogue
// of Figure 1).
func (s Setup) ChainComparison(requestCounts []int) (*metrics.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title: fmt.Sprintf("Extension — service function chains (seeds=%d)", len(s.Seeds)),
		Header: []string{
			"chains", "pd-chain-onsite", "greedy-chain-onsite",
			"pd-chain-offsite", "greedy-chain-offsite", "onsite bound",
		},
	}
	for _, count := range requestCounts {
		results := make(map[string][]float64, 5)
		for _, seed := range s.Seeds {
			inst, err := s.chainInstance(count, seed)
			if err != nil {
				return nil, err
			}
			type scheduler = core.TwoPhase[chain.Request, chain.Placement]
			builds := []func() (scheduler, error){
				func() (scheduler, error) { return chain.NewOnsiteScheduler(inst.Network, inst.Horizon) },
				func() (scheduler, error) { return chain.NewGreedyOnsite(inst.Network, inst.Horizon) },
				func() (scheduler, error) { return chain.NewOffsiteScheduler(inst.Network, inst.Horizon) },
				func() (scheduler, error) { return chain.NewGreedyOffsite(inst.Network, inst.Horizon) },
			}
			for _, build := range builds {
				sched, err := build()
				if err != nil {
					return nil, fmt.Errorf("experiments: %w", err)
				}
				res, err := simulate.RunChains(inst, sched)
				if err != nil {
					return nil, fmt.Errorf("experiments: %w", err)
				}
				results[sched.Name()] = append(results[sched.Name()], res.Revenue)
			}
			switch s.Optimal {
			case OptimalLPBound:
				bound, err := offline.LPBoundChainOnsite(inst)
				if err != nil {
					return nil, fmt.Errorf("experiments: %w", err)
				}
				results["bound"] = append(results["bound"], bound)
			case OptimalBB:
				sol, err := offline.SolveChainOnsite(inst, mip.Config{MaxNodes: s.OptNodes})
				if err != nil {
					return nil, fmt.Errorf("experiments: %w", err)
				}
				results["bound"] = append(results["bound"], sol.Revenue)
			default:
				results["bound"] = append(results["bound"], 0)
			}
		}
		format := func(name string) string {
			return metrics.FormatMeanCI(metrics.Summarize(results[name]))
		}
		table.AddRow(
			strconv.Itoa(count),
			format("pd-chain-onsite"),
			format("greedy-chain-onsite"),
			format("pd-chain-offsite"),
			format("greedy-chain-offsite"),
			format("bound"),
		)
	}
	return table, nil
}

// chainInstance materializes a chain workload on the setup's network.
func (s Setup) chainInstance(requests int, seed int64) (*chain.Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.Load(s.Topology)
	if err != nil {
		return nil, err
	}
	sites, err := topology.PlaceCloudletsByDegree(g, s.Cloudlets)
	if err != nil {
		return nil, err
	}
	cloudlets, err := workload.RandomCloudlets(workload.CloudletConfig{
		Count:          s.Cloudlets,
		MinCapacity:    s.CapMin,
		MaxCapacity:    s.CapMax,
		MaxReliability: s.RCMax,
		K:              s.K,
		Sites:          sites,
	}, rng)
	if err != nil {
		return nil, err
	}
	network := &core.Network{Catalog: workload.DefaultCatalog(), Cloudlets: cloudlets}
	trace, err := chain.GenerateTrace(chain.TraceConfig{
		Requests:       requests,
		Horizon:        s.Horizon,
		MinLength:      2,
		MaxLength:      4,
		MinDuration:    s.MinDur,
		MaxDuration:    s.MaxDur,
		MinRequirement: 0.85,
		MaxRequirement: 0.92,
		MaxPaymentRate: s.PRMax,
		H:              s.H,
	}, network.Catalog, rng)
	if err != nil {
		return nil, err
	}
	inst := &chain.Instance{
		Network: network,
		Horizon: s.Horizon,
		Trace:   trace,
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: chain instance: %w", err)
	}
	return inst, nil
}
