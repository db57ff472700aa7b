package core

import (
	"math/rand"
	"testing"
)

// TestSharedReliabilitySingleton pins the k = 1 anchor: a singleton group
// is exactly a dedicated two-cloudlet off-site placement.
func TestSharedReliabilitySingleton(t *testing.T) {
	rf, rcA, rcB := 0.95, 0.98, 0.97
	got := SharedReliabilityK(rf, rcA, rcB, 0.5, 1)
	want := OffsiteReliability(rf, []float64{rcA, rcB})
	if !FloatEq(got, want) {
		t.Fatalf("SharedReliabilityK(k=1) = %v, want off-site pair %v", got, want)
	}
	// The heterogeneous form with no peers agrees too.
	if got2 := SharedReliability(rf, rcA, rcB, nil); !FloatEq(got2, want) {
		t.Fatalf("SharedReliability(no peers) = %v, want %v", got2, want)
	}
}

// TestSharedReliabilityHomogeneousAgreement cross-checks the closed form
// against the exact Poisson-binomial DP with identical peers.
func TestSharedReliabilityHomogeneousAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rf := 0.85 + 0.14*rng.Float64()
		rcA := 0.90 + 0.09*rng.Float64()
		rcB := 0.90 + 0.09*rng.Float64()
		k := 1 + rng.Intn(8)
		peers := make([]float64, k-1)
		for i := range peers {
			peers[i] = 1 - rf*rcA
		}
		closed := SharedReliabilityK(rf, rcA, rcB, rf*rcA, k)
		exact := SharedReliability(rf, rcA, rcB, peers)
		if !FloatEqTol(closed, exact, 1e-9) {
			t.Fatalf("k=%d rf=%v rcA=%v rcB=%v: closed %v vs exact %v", k, rf, rcA, rcB, closed, exact)
		}
	}
}

// TestSharedReliabilityMonotoneInK checks the quickcheck property the
// admission logic leans on: more pool members never raises a member's
// effective reliability (Free(k) strictly decreases), so validating at
// full pool capacity is conservative for every intermediate occupancy.
func TestSharedReliabilityMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		rf := 0.5 + 0.49*rng.Float64()
		rcA := 0.5 + 0.49*rng.Float64()
		rcB := 0.5 + 0.49*rng.Float64()
		peer := 0.5 + 0.49*rng.Float64()
		prev := SharedReliabilityK(rf, rcA, rcB, peer, 1)
		for k := 2; k <= 12; k++ {
			cur := SharedReliabilityK(rf, rcA, rcB, peer, k)
			if cur > prev+relEpsilon {
				t.Fatalf("availability rose with pool size: rf=%v rcA=%v rcB=%v k=%d: %v > %v",
					rf, rcA, rcB, k, cur, prev)
			}
			prev = cur
		}
	}
	// The heterogeneous form is monotone in peers too: appending a peer
	// can only add contention.
	for trial := 0; trial < 200; trial++ {
		rf := 0.8 + 0.19*rng.Float64()
		rcA := 0.8 + 0.19*rng.Float64()
		rcB := 0.8 + 0.19*rng.Float64()
		peers := []float64{}
		prev := SharedReliability(rf, rcA, rcB, peers)
		for i := 0; i < 6; i++ {
			peers = append(peers, rng.Float64())
			cur := SharedReliability(rf, rcA, rcB, peers)
			if cur > prev+relEpsilon {
				t.Fatalf("availability rose with an extra peer: %v > %v", cur, prev)
			}
			prev = cur
		}
	}
}

// TestSharedReliabilityBounds sanity-checks the availability stays a
// probability and above the bare primary path (the backup can only help).
func TestSharedReliabilityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		rf := 0.5 + 0.49*rng.Float64()
		rcA := 0.5 + 0.49*rng.Float64()
		rcB := 0.5 + 0.49*rng.Float64()
		k := 1 + rng.Intn(10)
		a := SharedReliabilityK(rf, rcA, rcB, rf*rcA, k)
		if a <= 0 || a >= 1 {
			t.Fatalf("availability %v out of (0,1)", a)
		}
		if q := rf * rcA; a+relEpsilon < q {
			t.Fatalf("availability %v below bare active path %v", a, q)
		}
	}
}

// TestSharedTableBitIdentity checks the ReliabilityTable's cached shared
// surface returns bit-identical values to the package-level closed form,
// including the fallback beyond the cached ladder.
func TestSharedTableBitIdentity(t *testing.T) {
	n := testNetwork()
	tab, err := NewReliabilityTable(n)
	if err != nil {
		t.Fatal(err)
	}
	for f := range n.Catalog {
		rf := n.Catalog[f].Reliability
		floor := SharedContentionFloor(rf, n.Cloudlets)
		for a := range n.Cloudlets {
			for b := range n.Cloudlets {
				for _, k := range []int{1, 2, 4, maxSharedLadder, maxSharedLadder + 3} {
					want := SharedReliabilityK(rf, n.Cloudlets[a].Reliability, n.Cloudlets[b].Reliability, floor, k)
					got := tab.SharedAvailability(f, a, b, k)
					if got != want {
						t.Fatalf("SharedAvailability(%d,%d,%d,%d) = %v, want %v (bit-identical)",
							f, a, b, k, got, want)
					}
				}
				feasible := tab.SharedFeasible(f, a, b, 4, 0.95)
				direct := a != b && SharedReliabilityK(rf, n.Cloudlets[a].Reliability, n.Cloudlets[b].Reliability, floor, 4)+relEpsilon >= 0.95
				if feasible != direct {
					t.Fatalf("SharedFeasible(%d,%d,%d) = %v, want %v", f, a, b, feasible, direct)
				}
			}
		}
	}
}
