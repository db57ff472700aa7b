package core

import (
	"fmt"
	"math"
)

// relEpsilon absorbs floating-point noise when comparing reliabilities: a
// placement whose computed availability falls short of the requirement by
// less than relEpsilon is still accepted. The instance-count formulas below
// round conservatively, so the tolerance is only ever consumed by the final
// comparison, never by sizing decisions.
const relEpsilon = 1e-12

// MeetsRequirement is the paper's inequality P(A_i) ≥ R_i as every consumer
// compares it — the admission gate, the repair health check, chain
// placements, the SLO ledger — so no two of them disagree at the boundary.
// Section V's log-domain form compares the same way: the summed
// OffsiteWeights against RequirementWeight(R_i).
func MeetsRequirement(avail, req float64) bool {
	return avail+relEpsilon >= req
}

// Availability returns P(A), the probability that at least one instance of
// VNF vnf in the footprint is up in an up cloudlet, at n.Cloudlets' rates
// (learned ones enter as n.WithReliabilities(src)):
//
//	1 − Π_j (1 − r(c_j)·(1−(1−r(f))^n_j))
//
// One site is Eqs. (2)-(3), one instance per site Eq. (10), a chain stage or
// the survivors of a failure any mix. The two shapes the schedulers propose
// equal their closed forms to the bit: one site is its own term,
// OnsiteReliability — the expression ReliabilityTable's steps are read off,
// so the gate cannot refuse at a knife edge what the table just proposed —
// and a single-instance site among several contributes Eq. (10)'s factor
// 1 − r(f)·r(c_j) as written there. A site without instances contributes
// nothing; an empty footprint has availability 0.
func Availability(n *Network, vnf int, sites []Assignment) float64 {
	rf := n.Catalog[vnf].Reliability
	if len(sites) == 1 {
		return OnsiteReliability(rf, n.Cloudlets[sites[0].Cloudlet].Reliability, sites[0].Instances)
	}
	fail := 1.0
	for _, a := range sites {
		rc := n.Cloudlets[a.Cloudlet].Reliability
		if a.Instances == 1 {
			fail *= 1 - rf*rc
		} else {
			fail *= 1 - OnsiteReliability(rf, rc, a.Instances)
		}
	}
	return 1 - fail
}

// OnsiteInstances returns N, the minimum number of primary plus backup
// instances of a VNF with reliability rf that must be placed in a cloudlet
// with reliability rc so that rc·(1-(1-rf)^N) ≥ req (Eq. (2)-(3) of the
// paper). It returns ErrInfeasible when rc ≤ req, in which case no number of
// instances suffices because every instance dies with the cloudlet.
func OnsiteInstances(rf, rc, req float64) (int, error) {
	if !validProbability(rf) || !validProbability(rc) || !validProbability(req) {
		return 0, fmt.Errorf("%w: rf=%v rc=%v req=%v", ErrBadReliability, rf, rc, req)
	}
	if rc <= req {
		return 0, fmt.Errorf("%w: cloudlet reliability %v ≤ requirement %v", ErrInfeasible, rc, req)
	}
	// N = ceil( ln(1 - req/rc) / ln(1 - rf) ). Both logs are negative.
	target := 1 - req/rc
	n := int(math.Ceil(math.Log(target) / math.Log(1-rf)))
	if n < 1 {
		n = 1
	}
	// Guard against floating-point underestimation: bump until the closed
	// form verifies. In practice this loop runs zero iterations.
	for OnsiteReliability(rf, rc, n)+relEpsilon < req {
		n++
	}
	return n, nil
}

// OnsiteReliability returns rc·(1-(1-rf)^n), the availability of a request
// served by n instances of a VNF with reliability rf inside one cloudlet
// with reliability rc.
func OnsiteReliability(rf, rc float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return rc * (1 - math.Pow(1-rf, float64(n)))
}

// OffsiteWeight returns w = -ln(1 - rf·rc), the log-domain reliability
// contribution of placing one instance in a cloudlet with reliability rc
// (Section V). Weights are additive: a cloudlet set meets requirement req
// iff the sum of its weights is at least RequirementWeight(req)
// (MeetsRequirement).
func OffsiteWeight(rf, rc float64) float64 {
	return -math.Log(1 - rf*rc)
}

// RequirementWeight returns W = -ln(1 - req), the log-domain threshold that
// the summed OffsiteWeights of the chosen cloudlets must reach.
func RequirementWeight(req float64) float64 {
	return -math.Log(1 - req)
}
