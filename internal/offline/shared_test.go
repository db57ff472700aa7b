package offline

import (
	"math"
	"testing"

	"revnf/internal/core"
	"revnf/internal/mip"
	"revnf/internal/workload"
)

// sharedPlacement is the placement SolveShared returns for a triple.
func sharedPlacement(req core.Request, primary, backup, poolSize int) core.Placement {
	return core.Placement{
		Request:     req.ID,
		Scheme:      core.Shared,
		Assignments: []core.Assignment{{Cloudlet: primary, Instances: 1}},
		Backup:      &core.SharedBackup{Group: 1, Cloudlet: backup, PoolSize: poolSize},
	}
}

// bruteForceShared enumerates every (reject | primary, backup) choice per
// request, a pair being a choice when its placement validates at the pool
// size, and returns the best revenue under the amortized capacity
// accounting: c(f) on the primary and c(f)/k on the backup cloudlet.
func bruteForceShared(t *testing.T, inst *workload.Instance, poolSize int) float64 {
	t.Helper()
	m := len(inst.Network.Cloudlets)
	used := make([][]float64, m)
	for j := range used {
		used[j] = make([]float64, inst.Horizon+1)
	}
	best := 0.0
	var recurse func(i int, revenue float64)
	recurse = func(i int, revenue float64) {
		if i == len(inst.Trace) {
			best = math.Max(best, revenue)
			return
		}
		recurse(i+1, revenue)
		req := inst.Trace[i]
		units := float64(inst.Network.Catalog[req.VNF].Demand)
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				if sharedPlacement(req, a, b, poolSize).Validate(inst.Network, req) != nil {
					continue
				}
				loads := []load{{a, units}, {b, units / float64(poolSize)}}
				for _, l := range loads {
					for s := req.Arrival; s <= req.End(); s++ {
						used[l.cloudlet][s] += l.units
					}
				}
				fits := true
				for _, l := range loads {
					for s := req.Arrival; s <= req.End(); s++ {
						fits = fits && used[l.cloudlet][s] <= float64(inst.Network.Cloudlets[l.cloudlet].Capacity)+1e-9
					}
				}
				if fits {
					recurse(i+1, revenue+req.Payment)
				}
				for _, l := range loads {
					for s := req.Arrival; s <= req.End(); s++ {
						used[l.cloudlet][s] -= l.units
					}
				}
			}
		}
	}
	recurse(0, 0)
	return best
}

func TestSolveSharedMatchesBruteForce(t *testing.T) {
	exact := 0
	for seed := int64(1); seed <= 5; seed++ {
		for _, k := range []int{1, 2, 3} {
			inst := tinyInstance(t, seed, 5)
			sol, err := SolveShared(inst, k, mip.Config{})
			if err != nil {
				t.Fatalf("seed %d k %d: SolveShared: %v", seed, k, err)
			}
			if sol.Status != mip.Exact {
				continue
			}
			exact++
			if want := bruteForceShared(t, inst, k); math.Abs(sol.Revenue-want) > 1e-6 {
				t.Errorf("seed %d k %d: revenue %v, brute force %v", seed, k, sol.Revenue, want)
			}
		}
	}
	if exact == 0 {
		t.Fatal("no solve finished exact")
	}
}

// TestSolveSharedPlacementsValid checks what the grouping promises: every
// placement validates at pool size k, a group keeps one backup cloudlet
// and VNF, and no group has more than k members in any slot. The bound
// must dominate the incumbent.
func TestSolveSharedPlacementsValid(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, k := range []int{1, 2, 3} {
			inst := tinyInstance(t, seed, 12)
			sol, err := SolveShared(inst, k, mip.Config{MaxNodes: 300})
			if err != nil {
				t.Fatalf("seed %d k %d: SolveShared: %v", seed, k, err)
			}
			bound, err := LPBoundShared(inst, k)
			if err != nil {
				t.Fatalf("seed %d k %d: LPBoundShared: %v", seed, k, err)
			}
			if bound < sol.Revenue-1e-6 {
				t.Errorf("seed %d k %d: LP bound %v below revenue %v", seed, k, bound, sol.Revenue)
			}
			revenue := 0.0
			members := map[int]map[int]int{} // group → slot → members
			keys := map[int][2]int{}         // group → (backup cloudlet, VNF)
			for _, p := range sol.Placements {
				req := inst.Trace[p.Request]
				revenue += req.Payment
				if !sol.Admitted[p.Request] {
					t.Errorf("seed %d k %d: placement for non-admitted request %d", seed, k, p.Request)
				}
				if err := p.Validate(inst.Network, req); err != nil || p.Backup.PoolSize != k {
					t.Errorf("seed %d k %d: request %d: %v (pool size %d)", seed, k, p.Request, err, p.Backup.PoolSize)
					continue
				}
				g := p.Backup.Group
				key := [2]int{p.Backup.Cloudlet, req.VNF}
				if prev, ok := keys[g]; ok && prev != key {
					t.Errorf("seed %d k %d: group %d serves %v and %v", seed, k, g, prev, key)
				}
				keys[g] = key
				if members[g] == nil {
					members[g] = map[int]int{}
				}
				for s := req.Arrival; s <= req.End(); s++ {
					if members[g][s]++; members[g][s] > k {
						t.Errorf("seed %d k %d: group %d has %d members in slot %d", seed, k, g, members[g][s], s)
					}
				}
			}
			if math.Abs(revenue-sol.Revenue) > 1e-6 {
				t.Errorf("seed %d k %d: placement revenue %v != solution revenue %v", seed, k, revenue, sol.Revenue)
			}
		}
	}
}
