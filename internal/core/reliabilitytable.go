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
// Schedulers need ceil(log(1-R/rc)/log(1-rf)) and -log(1-rf·rc) for every
// cloudlet on every Decide; this table precomputes, per (VNF, cloudlet)
// pair,
//
//   - the requirement steps of the minimum on-site instance count of
//     Eqs. (2)-(3): N is a non-decreasing step function of the request's
//     requirement R, so steps[n-1] holds the largest R answered with at
//     most n instances and a lookup is a scan of loads and compares — no
//     logarithm. The steps are found at construction by bisecting the
//     uncached computation (closed-form start with the cached log(1-rf),
//     then the verify-and-bump walk on the availability ladder
//     rc·(1-(1-rf)^n)), which stays as the path for requirements past the
//     last step, and
//   - the off-site log-domain weight -ln(1 - rf·rc) of Section V.
//
// Every lookup returns bit-identical results to the package-level
// OnsiteInstances and OffsiteWeight functions (the steps are read off the
// same expressions those evaluate), so cached and uncached schedulers make
// identical decisions.
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
	// steps[f·m+j][n-1] is the largest requirement for which the pair
	// needs at most n instances (onsiteSteps); m = len(rcs).
	steps [][]float64
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
		steps:       make([][]float64, len(n.Catalog)*len(n.Cloudlets)),
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
			t.steps[f*len(n.Cloudlets)+j] = t.onsiteSteps(f, j)
		}
	}
	return t, nil
}

// OnsiteInstances returns N, the minimum instance count so that
// rc·(1-(1-rf)^N) ≥ req for the pair (vnf, cloudlet), exactly as the
// package-level OnsiteInstances does for the pair's reliabilities. Indices
// must be valid for the table's network.
func (t *ReliabilityTable) OnsiteInstances(vnf, cloudlet int, req float64) (int, error) {
	if n, ok := t.OnsiteInstancesOK(vnf, cloudlet, req); ok {
		return n, nil
	}
	return OnsiteInstances(t.rfs[vnf], t.rcs[cloudlet], req)
}

// OnsiteInstancesOK is the allocation-free variant schedulers use on the
// hot path: it returns (N, true) exactly when OnsiteInstances would return
// (N, nil), and (0, false) for infeasible or out-of-range requirements —
// the "skip this cloudlet" signal — without constructing an error.
func (t *ReliabilityTable) OnsiteInstancesOK(vnf, cloudlet int, req float64) (int, bool) {
	if req > 0 {
		for i, bound := range t.steps[vnf*len(t.rcs)+cloudlet] {
			if req <= bound {
				return i + 1, true
			}
		}
	}
	// Not a positive number, or past the last step: infeasible, invalid, or
	// (for extreme inputs only) beyond the resolved ladder.
	return t.onsiteUncached(vnf, cloudlet, req)
}

// onsiteUncached is OnsiteInstancesOK computed from the request's own
// logarithm: the oracle the steps are bisected against, and the lookup
// path past the last step.
func (t *ReliabilityTable) onsiteUncached(vnf, cloudlet int, req float64) (int, bool) {
	if !validProbability(req) || t.rcs[cloudlet] <= req {
		return 0, false
	}
	if n, ok := t.onsiteFromLadder(vnf, cloudlet, req); ok {
		return n, true
	}
	// The ladder was truncated before reaching req (possible only for
	// extreme inputs): defer to the exact closed form.
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

// stepBracket is the half-width of the first bisection bracket around a
// rung: the step sits within a few relEpsilon of it, so a much wider
// bracket only costs oracle calls.
const stepBracket = 1e-9

// onsiteSteps tabulates the pair's requirement steps from the ladder:
// steps[n-1] is the largest float64 R for which onsiteFromLadder answers at
// most n. That answer is non-decreasing in R — the closed-form start and
// the first verifying rung both are — so each step is the boundary of a
// true-then-false predicate, found by bisection over float bit patterns
// (positive floats order as their bits do) with onsiteFromLadder itself as
// the oracle; the scan in OnsiteInstancesOK therefore returns what
// onsiteFromLadder would. The table ends at the rung that serves every
// requirement below rc, or at the last resolved rung, past which lookups
// keep the uncached path.
func (t *ReliabilityTable) onsiteSteps(vnf, cloudlet int) []float64 {
	ladder := t.ladder[vnf][cloudlet]
	atMost := func(r float64, n int) bool {
		got, ok := t.onsiteFromLadder(vnf, cloudlet, r)
		return ok && got <= n
	}
	top := math.Nextafter(t.rcs[cloudlet], 0) // the largest feasible requirement
	steps := make([]float64, 0, len(ladder))
	lo := math.SmallestNonzeroFloat64
	for n := 1; n <= len(ladder); n++ {
		if atMost(top, n) {
			return append(steps, top)
		}
		// atMost(lo) holds, atMost(hi) does not; try the rung's neighbourhood
		// before the whole range.
		hi := top
		if l := ladder[n-1] - stepBracket; l > lo && atMost(l, n) {
			lo = l
		}
		if h := ladder[n-1] + stepBracket; h < hi && !atMost(h, n) {
			hi = h
		}
		a, b := math.Float64bits(lo), math.Float64bits(hi)
		for b-a > 1 {
			mid := a + (b-a)/2
			if atMost(math.Float64frombits(mid), n) {
				a = mid
			} else {
				b = mid
			}
		}
		lo = math.Float64frombits(a)
		steps = append(steps, lo)
	}
	return steps
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

// SharedPairs is SharedFeasible tabulated for one pool size: the
// availability of every (VNF, primary, backup) triple is independent of the
// request, so a scheduler whose k is fixed filters its pair scan with one
// load and one compare per pair.
type SharedPairs struct {
	m int
	// bound[vnf][a·m+b] is SharedAvailability(vnf, a, b, k)+relEpsilon, the
	// largest requirement the pair serves; −1 for co-located pairs, which
	// serve none.
	bound [][]float64
}

// SharedPairs builds the pair table for pool size k.
func (t *ReliabilityTable) SharedPairs(k int) SharedPairs {
	m := len(t.rcs)
	p := SharedPairs{m: m, bound: make([][]float64, len(t.rfs))}
	for f := range p.bound {
		p.bound[f] = make([]float64, m*m)
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				p.bound[f][a*m+b] = t.SharedAvailability(f, a, b, k) + relEpsilon
			}
			p.bound[f][a*m+a] = -1
		}
	}
	return p
}

// Row returns, indexed by backup cloudlet b, the largest requirement each
// pair (primary a, b) serves: SharedFeasible(vnf, a, b, k, req) holds
// exactly when row[b] >= req. The row is empty when req is not a valid
// probability, which no pair serves. The caller must not modify it.
func (p SharedPairs) Row(vnf, a int, req float64) []float64 {
	if !validProbability(req) {
		return nil
	}
	return p.bound[vnf][a*p.m : (a+1)*p.m]
}
