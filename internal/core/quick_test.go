package core

import (
	"math"
	"testing"
	"testing/quick"
)

// Property (testing/quick): on-site availability is monotone in every
// input — more reliable VNFs, more reliable cloudlets, and more instances
// never hurt.
func TestOnsiteReliabilityMonotoneQuick(t *testing.T) {
	clamp := func(x float64) float64 {
		frac := math.Mod(math.Abs(x), 1)
		if !(frac >= 0 && frac <= 1) { // NaN or ±Inf inputs
			frac = 0.5
		}
		return 0.05 + 0.9*frac
	}
	f := func(rfSeed, rcSeed float64, nSeed uint8) bool {
		rf, rc := clamp(rfSeed), clamp(rcSeed)
		n := 1 + int(nSeed)%10
		base := OnsiteReliability(rf, rc, n)
		if OnsiteReliability(rf, rc, n+1) < base {
			return false
		}
		rf2 := rf + (1-rf)/2
		if OnsiteReliability(rf2, rc, n) < base-1e-12 {
			return false
		}
		rc2 := rc + (1-rc)/2
		return OnsiteReliability(rf, rc2, n) >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): off-site availability — Availability of one
// instance per cloudlet — is monotone in the cloudlet set (adding a
// cloudlet never lowers it) and bounded by 1.
func TestOffsiteReliabilityMonotoneQuick(t *testing.T) {
	clamp := func(x float64) float64 {
		frac := math.Mod(math.Abs(x), 1)
		if !(frac >= 0 && frac <= 1) { // NaN or ±Inf inputs
			frac = 0.5
		}
		return 0.05 + 0.9*frac
	}
	f := func(rfSeed float64, rcSeeds []float64, extraSeed float64) bool {
		if len(rcSeeds) > 8 {
			rcSeeds = rcSeeds[:8]
		}
		n := &Network{Catalog: []VNF{{Reliability: clamp(rfSeed)}}}
		var sites []Assignment
		for _, s := range append(rcSeeds, extraSeed) {
			sites = append(sites, Assignment{Cloudlet: len(n.Cloudlets), Instances: 1})
			n.Cloudlets = append(n.Cloudlets, Cloudlet{Reliability: clamp(s)})
		}
		base := Availability(n, 0, sites[:len(sites)-1])
		if base < 0 || base > 1 {
			return false
		}
		grown := Availability(n, 0, sites)
		return grown >= base-1e-12 && grown <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
