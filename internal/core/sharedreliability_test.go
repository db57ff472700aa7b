package core

import (
	"math/rand"
	"testing"

	"revnf/internal/oracle"
)

// TestSharedReliabilitySingleton pins the k = 1 anchor: a singleton group
// is exactly a dedicated two-cloudlet off-site placement.
func TestSharedReliabilitySingleton(t *testing.T) {
	rf, rcA, rcB := 0.95, 0.98, 0.97
	got := SharedReliabilityK(rf, rcA, rcB, 0.5, 1)
	want := eq10(rf, []float64{rcA, rcB})
	if !FloatEq(got, want) {
		t.Fatalf("SharedReliabilityK(k=1) = %v, want off-site pair %v", got, want)
	}
	// The enumeration of a pool with no peers agrees too.
	if got2 := oracle.Availability(rf, []oracle.Site{{Rc: rcA, N: 1}}, &oracle.Pool{Rc: rcB}); !FloatEq(got2, want) {
		t.Fatalf("enumerated pool without peers = %v, want %v", got2, want)
	}
}

// TestSharedReliabilityHomogeneousAgreement cross-checks the closed form
// against the enumeration of k−1 identical peers.
func TestSharedReliabilityHomogeneousAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rf := 0.85 + 0.14*rng.Float64()
		rcA := 0.90 + 0.09*rng.Float64()
		rcB := 0.90 + 0.09*rng.Float64()
		k := 1 + rng.Intn(8)
		closed := SharedReliabilityK(rf, rcA, rcB, rf*rcA, k)
		exact := oracle.Availability(rf, []oracle.Site{{Rc: rcA, N: 1}},
			&oracle.Pool{Rc: rcB, Peers: oracle.Peers(rf*rcA, k-1)})
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
	// Heterogeneous peers too: appending a peer can only add contention.
	for trial := 0; trial < 200; trial++ {
		rf := 0.8 + 0.19*rng.Float64()
		own := []oracle.Site{{Rc: 0.8 + 0.19*rng.Float64(), N: 1}}
		pool := &oracle.Pool{Rc: 0.8 + 0.19*rng.Float64()}
		prev := oracle.Availability(rf, own, pool)
		for i := 0; i < 6; i++ {
			pool.Peers = append(pool.Peers, rng.Float64())
			cur := oracle.Availability(rf, own, pool)
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

// TestSharedContentionFloorSound checks DESIGN.md §13.2's two soundness
// claims against the enumeration: a member priced at the contention floor
// stays served whatever the rates of its peers, as long as each is at least
// the floor, and validating at full capacity k is never invalidated by later
// joiners — any occupancy g ≤ k−1 serves at least what k−1 peers at the
// floor do. With k−1 peers exactly at the floor the two are the same model.
func TestSharedContentionFloorSound(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 2000; trial++ {
		rf := 0.5 + 0.49*rng.Float64()
		own := []oracle.Site{{Rc: 0.5 + 0.49*rng.Float64(), N: 1}}
		rcB := 0.5 + 0.49*rng.Float64()
		floor := 0.01 + 0.98*rng.Float64()
		k := 1 + rng.Intn(8)
		priced := SharedReliabilityK(rf, own[0].Rc, rcB, floor, k)

		peers := make([]float64, rng.Intn(k))
		for i := range peers {
			peers[i] = floor + (1-floor)*rng.Float64()
		}
		if got := oracle.Availability(rf, own, &oracle.Pool{Rc: rcB, Peers: peers}); got < priced-1e-12 {
			t.Fatalf("trial %d: rf=%v rcA=%v rcB=%v floor=%v k=%d peers %v: enumerated %v below the floor price %v",
				trial, rf, own[0].Rc, rcB, floor, k, peers, got, priced)
		}
		full := oracle.Availability(rf, own, &oracle.Pool{Rc: rcB, Peers: oracle.Peers(floor, k-1)})
		if !FloatEqTol(full, priced, 1e-12) {
			t.Fatalf("trial %d: rf=%v rcA=%v rcB=%v floor=%v k=%d: %d peers at the floor enumerate to %v, closed form %v",
				trial, rf, own[0].Rc, rcB, floor, k, k-1, full, priced)
		}
	}
}
