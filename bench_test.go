package revnf

import (
	"math/rand"
	"testing"

	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/lp"
	"revnf/internal/mip"
	"revnf/internal/simulate"
	"revnf/internal/topology"
)

// The Benchmark* functions below regenerate each figure of the paper's
// evaluation at a bench-friendly scale (one seed, short sweeps). Run the
// full-scale reproduction with cmd/experiments; the recorded outputs live
// in EXPERIMENTS.md.

// benchSetup mirrors experiments.DefaultSetup at a reduced scale so a
// single bench iteration stays in the tens-of-milliseconds range.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.Topology = topology.Abilene
	s.Cloudlets = 5
	s.Horizon = 30
	s.Requests = 100
	s.MaxDur = 6
	s.Seeds = []int64{1}
	s.Optimal = experiments.OptimalNone
	return s
}

// BenchmarkFig1aOnsite regenerates Figure 1(a): on-site revenue vs request
// count (Algorithm 1 vs greedy).
func BenchmarkFig1aOnsite(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1a([]int{50, 100, 150}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1aOnsiteWithOptimal includes the offline LP-bound column,
// measuring the full comparator pipeline.
func BenchmarkFig1aOnsiteWithOptimal(b *testing.B) {
	s := benchSetup()
	s.Optimal = experiments.OptimalLPBound
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1a([]int{50, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1bOffsite regenerates Figure 1(b): off-site revenue vs
// request count (Algorithm 2 vs greedy).
func BenchmarkFig1bOffsite(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1b([]int{50, 100, 150}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2aPaymentVariation regenerates Figure 2(a): revenue vs the
// payment-rate variation H.
func BenchmarkFig2aPaymentVariation(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2a([]float64{1, 5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2bReliabilityVariation regenerates Figure 2(b): revenue vs
// the cloudlet-reliability variation K.
func BenchmarkFig2bReliabilityVariation(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2b([]float64{1.0, 1.05, 1.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScale sweeps Algorithm 1's demand-scaling knob.
func BenchmarkAblationScale(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationScale([]float64{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDualUpdate compares multiplicative vs additive dual
// updates.
func BenchmarkAblationDualUpdate(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationDualUpdate([]int{100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSortKey compares Algorithm 2's candidate orderings.
func BenchmarkAblationSortKey(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationSortKey([]int{100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptBudget sweeps the offline B&B node budget.
func BenchmarkAblationOptBudget(b *testing.B) {
	s := benchSetup()
	s.Requests = 20
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationOptBudget([]int{1, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths behind the figures. ---

func benchInstance(b *testing.B, requests int) *Instance {
	b.Helper()
	s := benchSetup()
	inst, err := s.Instance(requests, s.H, s.K, 1)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkAlgorithm1 measures one full online pass of the on-site
// primal-dual scheduler over a 200-request trace.
func BenchmarkAlgorithm1(b *testing.B) {
	inst := benchInstance(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := NewScheduler(inst.Network, OnSite, WithHorizon(inst.Horizon))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(inst, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm2 measures one full online pass of the off-site
// primal-dual scheduler over a 200-request trace.
func BenchmarkAlgorithm2(b *testing.B) {
	inst := benchInstance(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := NewScheduler(inst.Network, OffSite, WithHorizon(inst.Horizon))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(inst, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyOnsite measures the baseline for comparison with
// Algorithm 1.
func BenchmarkGreedyOnsite(b *testing.B) {
	inst := benchInstance(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := NewScheduler(inst.Network, OnSite, WithAlgorithm(Greedy))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(inst, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineLPBound measures the simplex comparator on a
// 100-request on-site relaxation.
func BenchmarkOfflineLPBound(b *testing.B) {
	inst := benchInstance(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OfflineLPBound(inst, OnSite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineBranchBound measures the exact offline solver on a
// small instance.
func BenchmarkOfflineBranchBound(b *testing.B) {
	inst := benchInstance(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveOffline(inst, OnSite, MIPConfig{MaxNodes: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailureInjection measures Monte-Carlo availability estimation
// (1000 trials per admitted request).
func BenchmarkFailureInjection(b *testing.B) {
	inst := benchInstance(b, 100)
	sched, err := NewScheduler(inst.Network, OnSite, WithHorizon(inst.Horizon))
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(inst, sched)
	if err != nil {
		b.Fatal(err)
	}
	placements := res.AdmittedPlacements()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := EstimateAvailability(inst.Network, inst.Trace, placements, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexDense measures the raw LP solver on a synthetic dense
// program (30 variables, 60 constraints).
func BenchmarkSimplexDense(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const nvars, ncons = 30, 60
	build := func() *lp.Problem {
		p, err := lp.NewProblem(lp.Maximize, nvars)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nvars; i++ {
			if err := p.SetObjectiveCoeff(i, rng.Float64()*10); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < ncons; k++ {
			row := make(map[int]float64, nvars)
			for i := 0; i < nvars; i++ {
				row[i] = rng.Float64()
			}
			if _, err := p.AddConstraint(row, lp.LE, 10+rng.Float64()*30); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	prob := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := prob.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkBranchBoundKnapsack measures the MIP solver on a 16-item
// knapsack.
func BenchmarkBranchBoundKnapsack(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const n = 16
	p, err := lp.NewProblem(lp.Maximize, n)
	if err != nil {
		b.Fatal(err)
	}
	weights := make(map[int]float64, n)
	binaries := make([]int, n)
	for i := 0; i < n; i++ {
		if err := p.SetObjectiveCoeff(i, 1+rng.Float64()*20); err != nil {
			b.Fatal(err)
		}
		if _, err := p.AddConstraint(map[int]float64{i: 1}, lp.LE, 1); err != nil {
			b.Fatal(err)
		}
		weights[i] = 1 + rng.Float64()*10
		binaries[i] = i
	}
	if _, err := p.AddConstraint(weights, lp.LE, 30); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mip.Solve(p, binaries, mip.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures instance materialization (the
// per-seed setup cost inside every figure point).
func BenchmarkWorkloadGeneration(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := s.Instance(200, s.H, s.K, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyLoad measures embedded topology construction plus the
// degree-ranked cloudlet placement used by the generators.
func BenchmarkTopologyLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := topology.Load(topology.GEANT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := topology.PlaceCloudletsByDegree(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationEngine isolates the engine overhead by running the
// trivial reject-all scheduler.
func BenchmarkSimulationEngine(b *testing.B) {
	inst := benchInstance(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simulate.Run(inst, rejectAll{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Admitted != 0 {
			b.Fatal("reject-all admitted something")
		}
	}
}

type rejectAll struct {
	core.Stateless[Request, Placement]
}

func (rejectAll) Name() string   { return "reject-all" }
func (rejectAll) Scheme() Scheme { return OnSite }
func (rejectAll) Propose(Request, CapacityView) (Placement, bool) {
	return Placement{}, false
}

// BenchmarkChainScheduling measures a full online pass of the chain
// primal-dual schedulers over a 150-chain trace (the SFC extension).
func BenchmarkChainScheduling(b *testing.B) {
	network := &Network{Catalog: DefaultCatalog()}
	for j := 0; j < 6; j++ {
		network.Cloudlets = append(network.Cloudlets, Cloudlet{
			ID: j, Node: j, Capacity: 10, Reliability: 0.97 + 0.005*float64(j),
		})
	}
	cfg := ChainTraceConfig{
		Requests: 150, Horizon: 30, MinLength: 2, MaxLength: 4,
		MinDuration: 1, MaxDuration: 6,
		MinRequirement: 0.85, MaxRequirement: 0.93,
		MaxPaymentRate: 10, H: 8,
	}
	trace, err := GenerateChainTrace(cfg, network.Catalog, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	inst := &ChainInstance{Network: network, Horizon: 30, Trace: trace}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := NewChainOnsiteScheduler(network, 30)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunChains(inst, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQoSAssess measures topology QoS scoring of admitted off-site
// placements.
func BenchmarkQoSAssess(b *testing.B) {
	inst := benchInstance(b, 150) // benchSetup binds cloudlets to Abilene nodes
	g, err := LoadTopology(topology.Abilene)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := NewScheduler(inst.Network, OffSite, WithHorizon(inst.Horizon))
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(inst, sched)
	if err != nil {
		b.Fatal(err)
	}
	placements := res.AdmittedPlacements()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssessQoS(inst.Network, g, inst.Trace, placements); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimelineSimulation measures the Markov failure-timeline
// simulator over admitted on-site placements.
func BenchmarkTimelineSimulation(b *testing.B) {
	inst := benchInstance(b, 150)
	sched, err := NewScheduler(inst.Network, OnSite, WithHorizon(inst.Horizon))
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(inst, sched)
	if err != nil {
		b.Fatal(err)
	}
	cfg := TimelineConfig{CloudletMTTR: 3, InstanceMTTR: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := SimulateTimeline(inst.Network, inst.Horizon, inst.Trace, res.AdmittedPlacements(), cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}
