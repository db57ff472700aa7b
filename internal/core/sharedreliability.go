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
// group, or a conservative floor (SharedContentionFloor) for heterogeneous
// membership: the occupancy factor is decreasing in peer failure
// probability, so under-promising peerRel never overstates any member's
// availability.
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
	free := 1.0
	if pf := 1 - peerRel; pf > 0 {
		free = (1 - math.Pow(1-pf, float64(k))) / (float64(k) * pf)
	}
	q := rf * rcA
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
