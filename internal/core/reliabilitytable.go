package core

import (
	"fmt"
	"math"
)

// maxThresholds bounds the requirement steps tabulated per (VNF, cloudlet)
// pair. For the paper's catalog (r(f) ≥ 0.9) the on-site instance count
// never approaches this; requirements past the last step take the exact
// closed form.
const maxThresholds = 64

// ReliabilityTable caches the on-site reliability math on the admission
// hot path. On-site schedulers need ceil(log(1-R/rc)/log(1-rf)) for every
// cloudlet on every Propose; this table precomputes, per (VNF, cloudlet)
// pair, the requirement steps of the minimum on-site instance count of
// Eqs. (2)-(3): N is a non-decreasing step function of the request's
// requirement R, so steps[n-1] holds the largest R answered with at most n
// instances and a lookup is a scan of loads and compares — no logarithm.
// Requirements past the last step take OnsiteInstances itself.
//
// Every lookup returns bit-identical results to the package-level
// OnsiteInstances, so cached and uncached schedulers make identical
// decisions.
//
// The table is immutable after construction and safe for concurrent use.
// It snapshots the network's catalog and cloudlet reliabilities: if the
// network changes (cloudlets added, reliabilities re-estimated), build a
// new table — there is no other invalidation path.
type ReliabilityTable struct {
	// rfs[f] and rcs[j] snapshot the reliabilities for the path past the
	// last step.
	rfs []float64
	rcs []float64
	// steps[f·m+j][n-1] is the largest requirement for which the pair
	// needs at most n instances (onsiteSteps); m = len(rcs).
	steps [][]float64
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
		rfs:   make([]float64, len(n.Catalog)),
		rcs:   make([]float64, len(n.Cloudlets)),
		steps: make([][]float64, len(n.Catalog)*len(n.Cloudlets)),
	}
	for j, c := range n.Cloudlets {
		t.rcs[j] = c.Reliability
	}
	for f, v := range n.Catalog {
		rf := v.Reliability
		t.rfs[f] = rf
		for j, rc := range t.rcs {
			t.steps[f*len(t.rcs)+j] = onsiteSteps(rf, rc)
		}
	}
	return t, nil
}

// OnsiteInstancesOK returns (N, true) exactly when OnsiteInstances would
// return (N, nil) for the pair's reliabilities, and (0, false) for
// infeasible or out-of-range requirements — the "skip this cloudlet"
// signal — without constructing an error. Indices must be valid for the
// table's network.
func (t *ReliabilityTable) OnsiteInstancesOK(vnf, cloudlet int, req float64) (int, bool) {
	if req > 0 {
		for i, bound := range t.steps[vnf*len(t.rcs)+cloudlet] {
			if req <= bound {
				return i + 1, true
			}
		}
	}
	// Not a positive number, or past the last step: infeasible, invalid, or
	// (for extreme inputs only) beyond the tabulated counts.
	rc := t.rcs[cloudlet]
	if !validProbability(req) || rc <= req {
		return 0, false
	}
	n, err := OnsiteInstances(t.rfs[vnf], rc, req)
	return n, err == nil
}

// stepBracket is the half-width of the first bisection bracket around a
// rung: the step sits within a few relEpsilon of it, so a much wider
// bracket only costs tests.
const stepBracket = 1e-9

// onsiteSteps tabulates a pair's requirement steps: steps[n-1] is the
// largest float64 R with OnsiteInstances(rf, rc, R) ≤ n. OnsiteInstances
// returns the larger of its closed-form start ⌈ln(1−R/rc)/ln(1−rf)⌉ and the
// first rung rc·(1-(1-rf)^m) that verifies against R, and the rungs never
// decrease in m, so for R < rc its answer is at most n exactly when the
// start is and rung n verifies — an O(1) test, evaluated with the same
// expressions, that is true then false as R grows. Each step is that
// boundary, found by bisection over float bit patterns (positive floats
// order as their bits do). The table ends at the count that serves every
// requirement below rc, or after maxThresholds steps.
func onsiteSteps(rf, rc float64) []float64 {
	lnFail := math.Log(1 - rf)
	top := math.Nextafter(rc, 0) // the largest feasible requirement
	// The closed-form start at top is about how many steps there will be.
	est := int(math.Ceil(math.Log(1-top/rc) / lnFail))
	steps := make([]float64, 0, min(max(est, 1), maxThresholds))
	lo := math.SmallestNonzeroFloat64
	for n := 1; n <= maxThresholds; n++ {
		rung := OnsiteReliability(rf, rc, n)
		atMost := func(r float64) bool {
			return r < rc && int(math.Ceil(math.Log(1-r/rc)/lnFail)) <= n && rung+relEpsilon >= r
		}
		if atMost(top) {
			return append(steps, top)
		}
		// atMost(lo) holds, atMost(hi) does not; try the rung's neighbourhood
		// before the whole range.
		hi := top
		if l := rung - stepBracket; l > lo && atMost(l) {
			lo = l
		}
		if h := rung + stepBracket; h < hi && !atMost(h) {
			hi = h
		}
		a, b := math.Float64bits(lo), math.Float64bits(hi)
		for b-a > 1 {
			mid := a + (b-a)/2
			if atMost(math.Float64frombits(mid)) {
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

// SharedPairs tabulates, for one pool size k, which (VNF, primary, backup)
// triples serve which requirements under the shared scheme: a member's
// availability SharedReliabilityK at the contention floor is independent of
// the request, so a scheduler whose k is fixed filters its pair scan with
// one load and one compare per pair.
type SharedPairs struct {
	m int
	// bound[vnf][a·m+b] is the availability of the pair plus relEpsilon, the
	// largest requirement it serves; −1 for co-located pairs, which serve
	// none — the backup must survive the primary's cloudlet.
	bound [][]float64
}

// NewSharedPairs builds the pair table of a valid network for pool size k.
func NewSharedPairs(n *Network, k int) SharedPairs {
	m := len(n.Cloudlets)
	p := SharedPairs{m: m, bound: make([][]float64, len(n.Catalog))}
	for f, v := range n.Catalog {
		rf := v.Reliability
		floor := SharedContentionFloor(rf, n.Cloudlets)
		p.bound[f] = make([]float64, m*m)
		for a, ca := range n.Cloudlets {
			for b, cb := range n.Cloudlets {
				p.bound[f][a*m+b] = SharedReliabilityK(rf, ca.Reliability, cb.Reliability, floor, k) + relEpsilon
			}
			p.bound[f][a*m+a] = -1
		}
	}
	return p
}

// Row returns, indexed by backup cloudlet b, the largest requirement each
// pair (primary a, b) serves: the pair serves req exactly when row[b] >=
// req. The row is empty when req is not a valid probability, which no pair
// serves. The caller must not modify it.
func (p SharedPairs) Row(vnf, a int, req float64) []float64 {
	if !validProbability(req) {
		return nil
	}
	return p.bound[vnf][a*p.m : (a+1)*p.m]
}
