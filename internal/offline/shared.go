package offline

import (
	"fmt"

	"revnf/internal/core"
	"revnf/internal/lp"
	"revnf/internal/mip"
	"revnf/internal/timeslot"
	"revnf/internal/workload"
)

// sharedTriple is one candidate shared placement: request i served by a
// primary instance on cloudlet a joining a backup pool on cloudlet b.
type sharedTriple struct {
	request, primary, backup int
}

// sharedModel is the amortized shared program: variable v places vars[v].
type sharedModel struct {
	prob *lp.Problem
	vars []sharedTriple
}

// buildShared constructs the amortized shared-backup program: one column
// per reliability-feasible triple (feasibility checked at full pool
// capacity k, exactly the online admission predicate), loading c(f) on
// the primary and c(f)/k on the backup cloudlet.
//
// A pool of g ≤ k concurrent members truly costs one instance (c(f)
// units), and the amortized charge g·c(f)/k never exceeds that, so every
// truly-feasible shared schedule is feasible here and the program's bound
// is a valid upper bound on the true shared optimum (column generation
// over pairs stays exhaustive for the same reason: dropping a feasible
// pair would forfeit that guarantee).
func buildShared(inst *workload.Instance, poolSize int) (*sharedModel, error) {
	if poolSize < 1 {
		return nil, fmt.Errorf("%w: pool size %d", ErrBadInstance, poolSize)
	}
	pairs := core.NewSharedPairs(inst.Network, poolSize)
	var triples []sharedTriple
	var cols []column
	for _, req := range inst.Trace {
		units := float64(inst.Network.Catalog[req.VNF].Demand)
		for a := range inst.Network.Cloudlets {
			for b, bound := range pairs.Row(req.VNF, a, req.Reliability) {
				if bound >= req.Reliability {
					triples = append(triples, sharedTriple{request: req.ID, primary: a, backup: b})
					cols = append(cols, column{request: req.ID, payment: req.Payment, arrival: req.Arrival, end: req.End(),
						loads: []load{{a, units}, {b, units / float64(poolSize)}}})
				}
			}
		}
	}
	prob, err := buildPacking(inst.Network, inst.Horizon, cols)
	if err != nil {
		return nil, err
	}
	return &sharedModel{prob: prob, vars: triples}, nil
}

// sharedGrouper assigns admitted triples to concrete backup groups: per
// (backup, vnf) key — primaries mix freely, made sound by the contention
// floor — a member joins the first group whose per-slot concurrent
// membership stays below k, else opens a new group.
// The resulting placements carry group IDs and pass core Validate at
// PoolSize = k.
type sharedGrouper struct {
	poolSize int
	next     int
	byKey    map[[2]int][]int
	refs     map[int]map[int]int
}

func newSharedGrouper(poolSize int) *sharedGrouper {
	return &sharedGrouper{
		poolSize: poolSize,
		next:     1,
		byKey:    make(map[[2]int][]int),
		refs:     make(map[int]map[int]int),
	}
}

func (g *sharedGrouper) place(key [2]int, arrival, end int) int {
	for _, gid := range g.byKey[key] {
		ref := g.refs[gid]
		fits := true
		for t := arrival; t <= end && fits; t++ {
			if ref[t] >= g.poolSize {
				fits = false
			}
		}
		if fits {
			for t := arrival; t <= end; t++ {
				ref[t]++
			}
			return gid
		}
	}
	gid := g.next
	g.next++
	g.byKey[key] = append(g.byKey[key], gid)
	ref := make(map[int]int)
	for t := arrival; t <= end; t++ {
		ref[t]++
	}
	g.refs[gid] = ref
	return gid
}

// SolveShared computes the offline shared-backup schedule by branch and
// bound on the amortized program. Admitted requests are grouped into
// concrete backup pools of at most poolSize concurrent members, so the
// returned placements validate; the incumbent's revenue is exact for the
// amortized capacity accounting, and UpperBound dominates the true pooled
// optimum, keeping Gap() a conservative certificate.
func SolveShared(inst *workload.Instance, poolSize int, cfg mip.Config) (*Solution, error) {
	if err := checkInstance(inst); err != nil {
		return nil, err
	}
	model, err := buildShared(inst, poolSize)
	if err != nil {
		return nil, err
	}
	if cfg.WarmStart == nil {
		warm, err := sharedWarmStart(inst, model, poolSize)
		if err != nil {
			return nil, fmt.Errorf("offline: shared warm start: %w", err)
		}
		cfg.WarmStart = warm
	}
	sol, x, err := solve[core.Placement]("shared", model.prob, len(inst.Trace), cfg)
	if x == nil {
		return sol, err
	}
	// The variables come in request order, so the groups are assigned in
	// request order too.
	grouper := newSharedGrouper(poolSize)
	for v, tr := range model.vars {
		if x[v] <= 0.5 {
			continue
		}
		req := inst.Trace[tr.request]
		sol.Admitted[tr.request] = true
		sol.Placements = append(sol.Placements, core.Placement{
			Request:     tr.request,
			Scheme:      core.Shared,
			Assignments: []core.Assignment{{Cloudlet: tr.primary, Instances: 1}},
			Backup: &core.SharedBackup{
				Group:    grouper.place([2]int{tr.backup, req.VNF}, req.Arrival, req.End()),
				Cloudlet: tr.backup,
				PoolSize: poolSize,
			},
		})
	}
	return sol, nil
}

// LPBoundShared returns the LP-relaxation upper bound on offline
// shared-backup revenue at the given pool size.
func LPBoundShared(inst *workload.Instance, poolSize int) (float64, error) {
	if err := checkInstance(inst); err != nil {
		return 0, err
	}
	model, err := buildShared(inst, poolSize)
	if err != nil {
		return 0, err
	}
	return lpBound(model.prob)
}

// sharedWarmStart builds a feasible point for the amortized model by
// running a true pooled greedy: requests in payment-density order, pairs
// scanned in index order, capacity tracked with a real refcounted pool —
// truly-feasible points are amortized-feasible, so the incumbent seeds
// branch and bound with honest revenue.
func sharedWarmStart(inst *workload.Instance, model *sharedModel, poolSize int) ([]float64, error) {
	ledger, err := timeslot.New(inst.Network.Capacities(), inst.Horizon)
	if err != nil {
		return nil, err
	}
	pool := timeslot.NewPool(ledger)
	// Per-request candidate triples, in variable order.
	byRequest := make(map[int][]int)
	for v, tr := range model.vars {
		byRequest[tr.request] = append(byRequest[tr.request], v)
	}
	grouper := newSharedGrouper(poolSize)
	x := make([]float64, model.prob.NumVars())
	for _, i := range paymentDensityOrder(inst) {
		req := inst.Trace[i]
		demand := inst.Network.Catalog[req.VNF].Demand
		for _, v := range byRequest[i] {
			tr := model.vars[v]
			if !ledger.CanReserve(tr.primary, req.Arrival, req.Duration, demand) {
				continue
			}
			gid, ok := reserveSharedJoin(pool, grouper, tr, req, demand)
			if !ok {
				continue
			}
			if err := ledger.Reserve(tr.primary, req.Arrival, req.Duration, demand); err != nil {
				// The pooled side is already held; undo it to keep the
				// throwaway ledger consistent for later requests.
				if rerr := pool.Release(gid, req.Arrival, req.Duration); rerr != nil {
					return nil, rerr
				}
				continue
			}
			x[v] = 1
			break
		}
	}
	// The ledger and pool are throwaway feasibility counters, not the live
	// admission ledger; nothing to release.
	return x, nil
}

// reserveSharedJoin tries to join (or open) a backup group for the
// triple, holding pooled capacity on success. The group refcount check
// and the ledger reservation are both enforced by the pool; the grouper
// only lists the groups per key and numbers new ones.
func reserveSharedJoin(pool *timeslot.Pool, grouper *sharedGrouper, tr sharedTriple, req core.Request, demand int) (int, bool) {
	key := [2]int{tr.backup, req.VNF}
	for _, gid := range grouper.byKey[key] {
		fits := true
		for t := req.Arrival; t <= req.End() && fits; t++ {
			if pool.Refs(gid, t) >= grouper.poolSize {
				fits = false
			}
		}
		if !fits {
			continue
		}
		if err := pool.Acquire(gid, tr.backup, req.Arrival, req.Duration, demand); err == nil {
			return gid, true
		}
	}
	gid := grouper.next
	if err := pool.Acquire(gid, tr.backup, req.Arrival, req.Duration, demand); err != nil {
		return 0, false
	}
	grouper.next++
	grouper.byKey[key] = append(grouper.byKey[key], gid)
	return gid, true
}
