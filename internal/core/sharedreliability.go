package core

import "math"

// DefaultSharedPoolSize is the pool capacity k the shared scheme uses when
// no explicit size is configured: up to k admitted requests share one
// backup instance. Four keeps the occupancy penalty small enough that the
// paper's requirement range (0.90–0.95) stays reachable from typical
// cloudlet pairs while quartering the backup footprint.
const DefaultSharedPoolSize = 4

// SharedReliabilityK returns the availability of one member of a shared
// backup group under the binomial occupancy model: the member's primary
// instance (VNF reliability rf) runs in a cloudlet with reliability rcA,
// and a single pooled backup instance in a cloudlet with reliability rcB
// is shared by up to k members. Each contending peer's active path is
// assumed up with probability peerRel — pass rf·rcA for a homogeneous
// group, or a conservative floor (the lowest rf·rc over primaries the
// pool admits, see ReliabilityTable) for heterogeneous membership: the
// occupancy factor is decreasing in peer failure probability, so
// under-promising peerRel never overstates any member's availability.
//
// The member is served when its active path is up (probability
// q = rf·rcA), or, failing that, when the backup path is up (rf·rcB) AND
// the member wins the pooled instance against the other contenders. With
// X ~ Binomial(k−1, 1−peerRel) concurrent contenders and a uniform
// random grant among the 1+X claimants, the win probability is
//
//	Free(k) = E[1/(1+X)] = (1 − peerRel^k) / (k·(1−peerRel))
//
// (the classic occupancy identity; Free(1) = 1, and Free is strictly
// decreasing in k). The availability is
//
//	A = q + (1−q) · (rf·rcB) · Free(k).
//
// At k = 1 the contenders vanish and this reduces exactly to the
// dedicated off-site pair 1 − (1−rf·rcA)(1−rf·rcB) for any peerRel, so a
// singleton group prices and validates identically to a two-cloudlet
// off-site placement. Admission always validates at full pool capacity k,
// so a member admitted into a half-empty group can never be invalidated
// by later joiners.
func SharedReliabilityK(rf, rcA, rcB, peerRel float64, k int) float64 {
	if k < 1 {
		return 0
	}
	q := rf * rcA
	return q + (1-q)*(rf*rcB)*sharedFree(peerRel, k)
}

// sharedFree returns Free(k) = (1 − q^k)/(k·(1−q)): the probability that
// a contender wins the pooled backup in a full k-group whose peers'
// active paths are each up with probability q. It is the single source of
// the occupancy factor so the cached ladder in ReliabilityTable is
// bit-identical to the closed form.
func sharedFree(q float64, k int) float64 {
	pf := 1 - q
	if pf <= 0 {
		return 1
	}
	return (1 - math.Pow(1-pf, float64(k))) / (float64(k) * pf)
}

// maxSharedLadder bounds the precomputed Free(k) ladder per VNF type;
// larger pools fall back to the closed form.
const maxSharedLadder = 16

// SharedReliability is the exact heterogeneous form of SharedReliabilityK:
// peerFail lists each other member's active-path failure probability
// (1 − rf_i·rc_i for peer i). The number of contenders X is then
// Poisson-binomial; E[1/(1+X)] is computed by an O(len(peerFail)²) dynamic
// program over the contender-count distribution. With all peerFail equal
// to 1 − peerRel and len(peerFail) = k−1 it agrees with SharedReliabilityK
// up to floating-point association. It is the reference tests hold the
// binomial closed form to; nothing on the serving path calls it.
func SharedReliability(rf, rcA, rcB float64, peerFail []float64) float64 {
	q := rf * rcA
	// pmf[x] = P(X = x contenders) over the peers, built incrementally.
	pmf := make([]float64, 1, len(peerFail)+1)
	pmf[0] = 1
	for _, pf := range peerFail {
		pmf = append(pmf, 0)
		for x := len(pmf) - 1; x >= 1; x-- {
			pmf[x] = pmf[x]*(1-pf) + pmf[x-1]*pf
		}
		pmf[0] *= 1 - pf
	}
	free := 0.0
	for x, p := range pmf {
		free += p / float64(x+1)
	}
	return q + (1-q)*(rf*rcB)*free
}

// SharedContentionFloor returns the conservative peer reliability the
// shared scheme's pools assume: the VNF running in the network's least
// reliable cloudlet. Validating and pricing every pool member against
// this floor keeps the binomial occupancy bound sound for arbitrary
// (heterogeneous-primary) membership — an actual peer is always at least
// this likely to stay off the backup.
func SharedContentionFloor(rf float64, cloudlets []Cloudlet) float64 {
	if len(cloudlets) == 0 {
		return 0
	}
	rcMin := cloudlets[0].Reliability
	for _, cl := range cloudlets[1:] {
		if cl.Reliability < rcMin {
			rcMin = cl.Reliability
		}
	}
	return rf * rcMin
}
