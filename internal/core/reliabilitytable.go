package core

import (
	"fmt"
	"math"
)

// maxThresholds bounds the precomputed availability ladder per
// (VNF, cloudlet) pair. For the paper's catalog (r(f) ≥ 0.9) the on-site
// instance count never approaches this; pathological inputs fall back to
// the exact closed form.
const maxThresholds = 64

// ReliabilityTable caches the reliability math on the admission hot path.
// Schedulers recompute ceil(log(1-R/rc)/log(1-rf)) and -log(1-rf·rc) for
// every cloudlet on every Decide; this table precomputes, per (VNF,
// cloudlet) pair,
//
//   - the availability ladder rc·(1-(1-rf)^n) for n = 1, 2, ..., so the
//     minimum on-site instance count of Eqs. (2)-(3) is the closed-form
//     start ceil(log(1-R/rc)/log(1-rf)) — one math.Log of the request's
//     own target per lookup, the denominator cached — followed by the
//     verify-and-bump walk on the ladder instead of on math.Pow, and
//   - the off-site log-domain weight -ln(1 - rf·rc) of Section V,
//
// plus log(1-rf) per VNF for that closed form and its fallback. Every lookup
// returns bit-identical results to the package-level OnsiteInstances and
// OffsiteWeight functions (the cached values are produced by the same
// expressions), so cached and uncached schedulers make identical
// decisions.
//
// The table is immutable after construction and safe for concurrent use.
// It snapshots the network's catalog and cloudlet reliabilities: if the
// network changes (cloudlets added, reliabilities re-estimated), build a
// new table — there is no other invalidation path.
type ReliabilityTable struct {
	// lnFail[f] is log(1 - rf), the denominator of the closed form.
	lnFail []float64
	// rfs[f] and rcs[j] snapshot the reliabilities for the fallback path.
	rfs []float64
	rcs []float64
	// ladder[f][j] holds rc·(1-(1-rf)^n) for n = 1.. (index n-1),
	// truncated at maxThresholds entries.
	ladder [][][]float64
	// weight[f][j] is -ln(1 - rf·rc), the off-site weight.
	weight [][]float64
	// sharedQ[f][j] is q = rf·rc_j, the active-path availability of a
	// shared-scheme member whose primary runs on cloudlet j.
	sharedQ [][]float64
	// sharedFloor[f] is the contention floor rf·min_j(rc_j): the assumed
	// active-path reliability of every pool peer, which keeps the
	// occupancy bound sound for pools mixing members from any primary
	// cloudlet (SharedContentionFloor).
	sharedFloor []float64
	// sharedFree[f][k-1] is Free(k) at the contention floor,
	// k = 1..maxSharedLadder: the occupancy factor of the shared-backup
	// availability. One ladder per VNF type — membership is open to every
	// primary cloudlet, and both cloudlets of a pair enter the
	// availability outside the occupancy factor.
	sharedFree [][]float64
}

// NewReliabilityTable precomputes the reliability tables for the network.
// The network must be valid (Validate); the table does not track later
// mutations of the network.
func NewReliabilityTable(n *Network) (*ReliabilityTable, error) {
	if n == nil {
		return nil, fmt.Errorf("%w: nil network", ErrNoCloudlets)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	t := &ReliabilityTable{
		lnFail:      make([]float64, len(n.Catalog)),
		rfs:         make([]float64, len(n.Catalog)),
		rcs:         make([]float64, len(n.Cloudlets)),
		ladder:      make([][][]float64, len(n.Catalog)),
		weight:      make([][]float64, len(n.Catalog)),
		sharedQ:     make([][]float64, len(n.Catalog)),
		sharedFloor: make([]float64, len(n.Catalog)),
		sharedFree:  make([][]float64, len(n.Catalog)),
	}
	for j, c := range n.Cloudlets {
		t.rcs[j] = c.Reliability
	}
	for f, v := range n.Catalog {
		rf := v.Reliability
		t.rfs[f] = rf
		t.lnFail[f] = math.Log(1 - rf)
		t.ladder[f] = make([][]float64, len(n.Cloudlets))
		t.weight[f] = make([]float64, len(n.Cloudlets))
		t.sharedQ[f] = make([]float64, len(n.Cloudlets))
		floor := SharedContentionFloor(rf, n.Cloudlets)
		t.sharedFloor[f] = floor
		free := make([]float64, maxSharedLadder)
		for k := 1; k <= maxSharedLadder; k++ {
			free[k-1] = sharedFree(floor, k)
		}
		t.sharedFree[f] = free
		for j, c := range n.Cloudlets {
			rc := c.Reliability
			t.weight[f][j] = OffsiteWeight(rf, rc)
			t.sharedQ[f][j] = rf * rc
			ladder := make([]float64, 0, 8)
			for k := 1; k <= maxThresholds; k++ {
				v := OnsiteReliability(rf, rc, k)
				ladder = append(ladder, v)
				// Once two consecutive rungs coincide the ladder has
				// stopped resolving; rarer growth beyond this point is
				// handled by the exact fallback.
				if len(ladder) > 1 && v == ladder[len(ladder)-2] {
					break
				}
			}
			t.ladder[f][j] = ladder
		}
	}
	return t, nil
}

// OnsiteInstances returns N, the minimum instance count so that
// rc·(1-(1-rf)^N) ≥ req for the pair (vnf, cloudlet), exactly as the
// package-level OnsiteInstances does for the pair's reliabilities. Indices
// must be valid for the table's network.
func (t *ReliabilityTable) OnsiteInstances(vnf, cloudlet int, req float64) (int, error) {
	rf, rc := t.rfs[vnf], t.rcs[cloudlet]
	if !validProbability(req) {
		return 0, fmt.Errorf("%w: rf=%v rc=%v req=%v", ErrBadReliability, rf, rc, req)
	}
	if rc <= req {
		return 0, fmt.Errorf("%w: cloudlet reliability %v ≤ requirement %v", ErrInfeasible, rc, req)
	}
	if n, ok := t.onsiteFromLadder(vnf, cloudlet, req); ok {
		return n, nil
	}
	// The ladder was truncated before reaching req (possible only for
	// extreme inputs): defer to the exact closed form.
	return OnsiteInstances(rf, rc, req)
}

// OnsiteInstancesOK is the allocation-free variant schedulers use on the
// hot path: it returns (N, true) exactly when OnsiteInstances would return
// (N, nil), and (0, false) for infeasible or out-of-range requirements —
// the "skip this cloudlet" signal — without constructing an error.
func (t *ReliabilityTable) OnsiteInstancesOK(vnf, cloudlet int, req float64) (int, bool) {
	if !validProbability(req) || t.rcs[cloudlet] <= req {
		return 0, false
	}
	if n, ok := t.onsiteFromLadder(vnf, cloudlet, req); ok {
		return n, true
	}
	n, err := OnsiteInstances(t.rfs[vnf], t.rcs[cloudlet], req)
	return n, err == nil
}

// onsiteFromLadder runs the closed form with the cached log, then the same
// verify-and-bump walk as the uncached path against the precomputed
// ladder. The second return is false when the ladder was truncated before
// reaching req and the caller must fall back to the exact path.
func (t *ReliabilityTable) onsiteFromLadder(vnf, cloudlet int, req float64) (int, bool) {
	target := 1 - req/t.rcs[cloudlet]
	n := int(math.Ceil(math.Log(target) / t.lnFail[vnf]))
	if n < 1 {
		n = 1
	}
	ladder := t.ladder[vnf][cloudlet]
	for n <= len(ladder) {
		if ladder[n-1]+relEpsilon >= req {
			return n, true
		}
		n++
	}
	return 0, false
}

// OnsiteFeasible reports whether the pair can serve a requirement at all
// (rc > req), without allocating an error.
func (t *ReliabilityTable) OnsiteFeasible(cloudlet int, req float64) bool {
	return t.rcs[cloudlet] > req
}

// OffsiteWeight returns the cached -ln(1 - rf·rc) for the pair.
func (t *ReliabilityTable) OffsiteWeight(vnf, cloudlet int) float64 {
	return t.weight[vnf][cloudlet]
}

// SharedAvailability returns the availability of a shared-scheme member
// with its primary on cloudlet a and its pooled backup (capacity k) on
// cloudlet b, with peers contending at the network-wide floor —
// bit-identical to SharedReliabilityK(rf, rcA, rcB, floor, k): the cached
// q and Free(k) are produced by the same expressions and combined in the
// same order. Pool sizes beyond the cached ladder fall back to the closed
// form.
func (t *ReliabilityTable) SharedAvailability(vnf, a, b, k int) float64 {
	if k < 1 {
		return 0
	}
	if k > maxSharedLadder {
		return SharedReliabilityK(t.rfs[vnf], t.rcs[a], t.rcs[b], t.sharedFloor[vnf], k)
	}
	q := t.sharedQ[vnf][a]
	return q + (1-q)*(t.rfs[vnf]*t.rcs[b])*t.sharedFree[vnf][k-1]
}

// SharedFeasible reports whether the (primary a, backup b) pair can serve
// requirement req at full pool capacity k, without allocating: the shared
// candidate filter of the scheduler's ladder scan. Co-located pairs are
// never feasible — the backup must survive the primary's cloudlet.
func (t *ReliabilityTable) SharedFeasible(vnf, a, b, k int, req float64) bool {
	if a == b || !validProbability(req) {
		return false
	}
	return t.SharedAvailability(vnf, a, b, k)+relEpsilon >= req
}
