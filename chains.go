package revnf

import (
	"math/rand"

	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/simulate"
)

// Service-function-chain extension: multi-VNF requests whose whole chain
// must be available with probability R. See internal/chain for the model
// and DESIGN.md for how the backup budget splits across stages.
type (
	// ChainRequest is one SFC request (ordered VNF stages + whole-chain R).
	ChainRequest = chain.Request
	// ChainPlacement is a chain admission's per-stage footprint.
	ChainPlacement = chain.Placement
	// ChainInstance bundles a chain simulation input.
	ChainInstance = chain.Instance
	// ChainScheduler is an online chain admission algorithm: the two-phase
	// contract of Scheduler for chain requests and placements.
	ChainScheduler = core.TwoPhase[chain.Request, chain.Placement]
	// ChainResult is an audited chain simulation outcome.
	ChainResult = simulate.Result[chain.Placement]
	// ChainTraceConfig configures the chain trace generator.
	ChainTraceConfig = chain.TraceConfig
	// ChainAllocation is the per-stage instance-count split.
	ChainAllocation = chain.Allocation
)

// NewChainOnsiteScheduler returns the chain generalization of Algorithm 1:
// the whole chain in one cloudlet, backups split across stages by greedy
// redundancy allocation, dual-price admission.
func NewChainOnsiteScheduler(n *Network, horizon int) (ChainScheduler, error) {
	return chain.NewOnsiteScheduler(n, horizon)
}

// NewChainOffsiteScheduler returns the chain generalization of Algorithm
// 2: per-stage targets R^(1/K) satisfied by dual-price cloudlet
// accumulation, stages kept on disjoint cloudlets.
func NewChainOffsiteScheduler(n *Network, horizon int) (ChainScheduler, error) {
	return chain.NewOffsiteScheduler(n, horizon)
}

// NewGreedyChainOnsite returns the greedy on-site chain baseline.
func NewGreedyChainOnsite(n *Network, horizon int) (ChainScheduler, error) {
	return chain.NewGreedyOnsite(n, horizon)
}

// NewGreedyChainOffsite returns the greedy off-site chain baseline.
func NewGreedyChainOffsite(n *Network, horizon int) (ChainScheduler, error) {
	return chain.NewGreedyOffsite(n, horizon)
}

// RunChains simulates a chain scheduler over the instance's trace with
// capacity and availability auditing.
func RunChains(inst *ChainInstance, sched ChainScheduler) (*ChainResult, error) {
	return simulate.RunChains(inst, sched)
}

// GenerateChainTrace draws a reproducible chain request trace.
func GenerateChainTrace(cfg ChainTraceConfig, catalog []core.VNF, rng *rand.Rand) ([]ChainRequest, error) {
	return chain.GenerateTrace(cfg, catalog, rng)
}

// ChainOnsiteAllocation computes the cheapest per-stage backup split that
// lets an on-site chain meet req inside a cloudlet of reliability rc.
func ChainOnsiteAllocation(catalog []VNF, vnfs []int, rc, req float64) (ChainAllocation, error) {
	return chain.OnsiteAllocation(catalog, vnfs, rc, req)
}
