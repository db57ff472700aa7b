package offline

import (
	"math"
	"testing"

	"revnf/internal/mip"
	"revnf/internal/oracle"
	"revnf/internal/timeslot"
	"revnf/internal/workload"
)

// bruteForceOffsite enumerates, per request, every cloudlet subset that
// meets the reliability requirement (or rejection) and returns the best
// capacity-feasible revenue.
func bruteForceOffsite(t *testing.T, inst *workload.Instance) float64 {
	t.Helper()
	n := len(inst.Trace)
	m := len(inst.Network.Cloudlets)
	caps := make([]int, m)
	for j, cl := range inst.Network.Cloudlets {
		caps[j] = cl.Capacity
	}
	// Enumerate admissible subsets per request.
	subsets := make([][]int, n) // bitmasks meeting reliability
	for i, req := range inst.Trace {
		rf := inst.Network.Catalog[req.VNF].Reliability
		for mask := 1; mask < 1<<m; mask++ {
			var sites []oracle.Site
			for j := 0; j < m; j++ {
				if mask&(1<<j) != 0 {
					sites = append(sites, oracle.Site{Rc: inst.Network.Cloudlets[j].Reliability, N: 1})
				}
			}
			if oracle.Availability(rf, sites, nil)+1e-12 >= req.Reliability {
				subsets[i] = append(subsets[i], mask)
			}
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
		recurse(i+1, ledger, revenue) // reject
		req := inst.Trace[i]
		demand := inst.Network.Catalog[req.VNF].Demand
		for _, mask := range subsets[i] {
			ok := true
			for j := 0; j < m && ok; j++ {
				if mask&(1<<j) != 0 && !ledger.CanReserve(j, req.Arrival, req.Duration, demand) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			for j := 0; j < m; j++ {
				if mask&(1<<j) != 0 {
					if err := ledger.Reserve(j, req.Arrival, req.Duration, demand); err != nil {
						t.Fatalf("Reserve: %v", err)
					}
				}
			}
			recurse(i+1, ledger, revenue+req.Payment)
			for j := 0; j < m; j++ {
				if mask&(1<<j) != 0 {
					if err := ledger.Release(j, req.Arrival, req.Duration, demand); err != nil {
						t.Fatalf("Release: %v", err)
					}
				}
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

func TestSolveOffsiteMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		inst := tinyInstance(t, seed, 4)
		sol, err := SolveOffsite(inst, mip.Config{})
		if err != nil {
			t.Fatalf("seed %d: SolveOffsite: %v", seed, err)
		}
		if sol.Status != mip.Exact {
			t.Fatalf("seed %d: status %v", seed, sol.Status)
		}
		want := bruteForceOffsite(t, inst)
		if math.Abs(sol.Revenue-want) > 1e-6 {
			t.Errorf("seed %d: revenue %v, brute force %v", seed, sol.Revenue, want)
		}
	}
}

func TestSolveOffsiteSolutionIsFeasible(t *testing.T) {
	inst := tinyInstance(t, 11, 6)
	sol, err := SolveOffsite(inst, mip.Config{})
	if err != nil {
		t.Fatalf("SolveOffsite: %v", err)
	}
	replayPlacements(t, inst, sol)
}

func TestLPBoundOffsiteDominatesILP(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		inst := tinyInstance(t, seed, 4)
		bound, err := LPBoundOffsite(inst)
		if err != nil {
			t.Fatalf("LPBoundOffsite: %v", err)
		}
		sol, err := SolveOffsite(inst, mip.Config{})
		if err != nil {
			t.Fatalf("SolveOffsite: %v", err)
		}
		if bound < sol.Revenue-1e-6 {
			t.Errorf("seed %d: LP bound %v below ILP optimum %v", seed, bound, sol.Revenue)
		}
	}
}

func TestSolveOffsiteBudget(t *testing.T) {
	inst := tinyInstance(t, 3, 6)
	sol, err := SolveOffsite(inst, mip.Config{MaxNodes: 2})
	if err != nil {
		t.Fatalf("SolveOffsite: %v", err)
	}
	if sol.Nodes > 2 {
		t.Errorf("Nodes = %d, want ≤ 2", sol.Nodes)
	}
	// Whatever the status, any reported incumbent must be feasible.
	if sol.Status == mip.BudgetExceeded || sol.Status == mip.Exact {
		replayPlacements(t, inst, sol)
	}
}
