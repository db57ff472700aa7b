package offline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/mip"
	"revnf/internal/simulate"
	"revnf/internal/timeslot"
)

func tinyChainInstance(t *testing.T, seed int64, requests int) *chain.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	network := &core.Network{
		Catalog: []core.VNF{
			{ID: 0, Name: "fw", Demand: 1, Reliability: 0.95},
			{ID: 1, Name: "ids", Demand: 2, Reliability: 0.9},
		},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: 0, Capacity: 6, Reliability: 0.99},
			{ID: 1, Node: 1, Capacity: 5, Reliability: 0.98},
		},
	}
	const horizon = 4
	trace := make([]chain.Request, requests)
	for i := range trace {
		length := 1 + rng.Intn(2)
		vnfs := make([]int, length)
		for k := range vnfs {
			vnfs[k] = rng.Intn(2)
		}
		d := 1 + rng.Intn(2)
		trace[i] = chain.Request{
			ID:          i,
			VNFs:        vnfs,
			Reliability: 0.88 + 0.05*rng.Float64(),
			Arrival:     1 + rng.Intn(horizon-d+1),
			Duration:    d,
			Payment:     1 + rng.Float64()*9,
		}
	}
	inst := &chain.Instance{Network: network, Horizon: horizon, Trace: trace}
	if err := inst.Validate(); err != nil {
		t.Fatalf("instance invalid: %v", err)
	}
	return inst
}

// bruteForceChainOnsite enumerates (reject | cloudlet) per chain with the
// same greedy allocation the solver fixes.
func bruteForceChainOnsite(t *testing.T, inst *chain.Instance) float64 {
	t.Helper()
	n := len(inst.Trace)
	caps := make([]int, len(inst.Network.Cloudlets))
	for j, cl := range inst.Network.Cloudlets {
		caps[j] = cl.Capacity
	}
	type option struct{ cloudlet, units int }
	options := make([][]option, n)
	for i, req := range inst.Trace {
		for j, cl := range inst.Network.Cloudlets {
			alloc, err := chain.OnsiteAllocation(inst.Network.Catalog, req.VNFs, cl.Reliability, req.Reliability)
			if err != nil {
				continue
			}
			options[i] = append(options[i], option{cloudlet: j, units: alloc.Units(inst.Network.Catalog, req.VNFs)})
		}
	}
	best := 0.0
	var recurse func(i int, ledger *timeslot.Ledger, revenue float64)
	recurse = func(i int, ledger *timeslot.Ledger, revenue float64) {
		if i == n {
			if revenue > best {
				best = revenue
			}
			return
		}
		recurse(i+1, ledger, revenue)
		req := inst.Trace[i]
		for _, opt := range options[i] {
			if !ledger.CanReserve(opt.cloudlet, req.Arrival, req.Duration, opt.units) {
				continue
			}
			if err := ledger.Reserve(opt.cloudlet, req.Arrival, req.Duration, opt.units); err != nil {
				t.Fatalf("Reserve: %v", err)
			}
			recurse(i+1, ledger, revenue+req.Payment)
			if err := ledger.Release(opt.cloudlet, req.Arrival, req.Duration, opt.units); err != nil {
				t.Fatalf("Release: %v", err)
			}
		}
	}
	ledger, err := timeslot.New(caps, inst.Horizon)
	if err != nil {
		t.Fatalf("timeslot.New: %v", err)
	}
	recurse(0, ledger, 0)
	return best
}

func TestSolveChainOnsiteMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		inst := tinyChainInstance(t, seed, 5)
		sol, err := SolveChainOnsite(inst, mip.Config{})
		if err != nil {
			t.Fatalf("seed %d: SolveChainOnsite: %v", seed, err)
		}
		if sol.Status != mip.Exact {
			t.Fatalf("seed %d: status %v", seed, sol.Status)
		}
		want := bruteForceChainOnsite(t, inst)
		if math.Abs(sol.Revenue-want) > 1e-6 {
			t.Errorf("seed %d: revenue %v, brute force %v", seed, sol.Revenue, want)
		}
	}
}

func TestSolveChainOnsitePlacementsValid(t *testing.T) {
	inst := tinyChainInstance(t, 9, 6)
	sol, err := SolveChainOnsite(inst, mip.Config{})
	if err != nil {
		t.Fatalf("SolveChainOnsite: %v", err)
	}
	caps := make([]int, len(inst.Network.Cloudlets))
	for j, cl := range inst.Network.Cloudlets {
		caps[j] = cl.Capacity
	}
	ledger, err := timeslot.New(caps, inst.Horizon)
	if err != nil {
		t.Fatalf("timeslot.New: %v", err)
	}
	revenue := 0.0
	for _, p := range sol.Placements {
		req := inst.Trace[p.Request]
		if err := p.Validate(inst.Network, req); err != nil {
			t.Errorf("placement for chain %d invalid: %v", p.Request, err)
		}
		if ok, err := ledger.ReserveAll(req.Arrival, req.Duration, p.Footprint(nil, inst.Network.Catalog), false); !ok || err != nil {
			t.Errorf("chain %d overbooks: %v", p.Request, err)
		}
		revenue += req.Payment
	}
	if math.Abs(revenue-sol.Revenue) > 1e-6 {
		t.Errorf("placement revenue %v != solution revenue %v", revenue, sol.Revenue)
	}
}

func TestLPBoundChainOnsiteDominates(t *testing.T) {
	inst := tinyChainInstance(t, 2, 5)
	bound, err := LPBoundChainOnsite(inst)
	if err != nil {
		t.Fatalf("LPBoundChainOnsite: %v", err)
	}
	sol, err := SolveChainOnsite(inst, mip.Config{})
	if err != nil {
		t.Fatalf("SolveChainOnsite: %v", err)
	}
	if bound < sol.Revenue-1e-6 {
		t.Errorf("LP bound %v below ILP optimum %v", bound, sol.Revenue)
	}
	// The online chain scheduler must also sit below the bound.
	sched, err := chain.NewOnsiteScheduler(inst.Network, inst.Horizon)
	if err != nil {
		t.Fatalf("NewOnsiteScheduler: %v", err)
	}
	res, err := simulate.RunChains(inst, sched)
	if err != nil {
		t.Fatalf("RunChains: %v", err)
	}
	if bound < res.Revenue-1e-6 {
		t.Errorf("LP bound %v below online revenue %v", bound, res.Revenue)
	}
}

func TestSolveChainOnsiteErrors(t *testing.T) {
	if _, err := SolveChainOnsite(nil, mip.Config{}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("nil instance err = %v", err)
	}
	if _, err := LPBoundChainOnsite(nil); !errors.Is(err, ErrBadInstance) {
		t.Errorf("nil instance err = %v", err)
	}
	inst := tinyChainInstance(t, 1, 3)
	inst.Trace = nil
	if _, err := SolveChainOnsite(inst, mip.Config{}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("empty trace err = %v", err)
	}
	inst = tinyChainInstance(t, 1, 3)
	for i := range inst.Trace {
		inst.Trace[i].Reliability = 0.995 // above both cloudlets
	}
	if _, err := SolveChainOnsite(inst, mip.Config{}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("no feasible pair err = %v", err)
	}
}
