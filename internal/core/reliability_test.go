package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOnsiteInstancesKnownValues(t *testing.T) {
	tests := []struct {
		name        string
		rf, rc, req float64
		want        int
	}{
		// Single 0.9-reliable instance in a 0.99 cloudlet already gives
		// 0.99*0.9 = 0.891 ≥ 0.85.
		{"single instance suffices", 0.9, 0.99, 0.85, 1},
		// 0.99*(1-0.1^1)=0.891 < 0.9, 0.99*(1-0.1^2)=0.9801 ≥ 0.9.
		{"two instances", 0.9, 0.99, 0.9, 2},
		// Demanding requirement close to cloudlet reliability.
		{"tight requirement", 0.9, 0.99, 0.9899, 4},
		{"high vnf reliability", 0.9999, 0.999, 0.99, 1},
		{"low vnf reliability", 0.5, 0.999, 0.99, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := OnsiteInstances(tt.rf, tt.rc, tt.req)
			if err != nil {
				t.Fatalf("OnsiteInstances(%v,%v,%v) error: %v", tt.rf, tt.rc, tt.req, err)
			}
			if got != tt.want {
				t.Errorf("OnsiteInstances(%v,%v,%v) = %d, want %d", tt.rf, tt.rc, tt.req, got, tt.want)
			}
		})
	}
}

func TestOnsiteInstancesInfeasible(t *testing.T) {
	if _, err := OnsiteInstances(0.9, 0.95, 0.95); !errors.Is(err, ErrInfeasible) {
		t.Errorf("rc == req: err = %v, want ErrInfeasible", err)
	}
	if _, err := OnsiteInstances(0.9, 0.9, 0.99); !errors.Is(err, ErrInfeasible) {
		t.Errorf("rc < req: err = %v, want ErrInfeasible", err)
	}
}

func TestOnsiteInstancesBadInputs(t *testing.T) {
	bad := [][3]float64{
		{0, 0.9, 0.5}, {1, 0.9, 0.5}, {0.9, 0, 0.5}, {0.9, 1.2, 0.5}, {0.9, 0.99, 0}, {0.9, 0.99, 1},
	}
	for _, b := range bad {
		if _, err := OnsiteInstances(b[0], b[1], b[2]); !errors.Is(err, ErrBadReliability) {
			t.Errorf("OnsiteInstances(%v) err = %v, want ErrBadReliability", b, err)
		}
	}
}

// Property: the returned N both satisfies the requirement and is minimal
// (N-1 instances fall short).
func TestOnsiteInstancesMinimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		rf := 0.3 + 0.699*rng.Float64()
		rc := 0.9 + 0.0999*rng.Float64()
		req := rc * (0.5 + 0.49*rng.Float64()) // strictly below rc
		n, err := OnsiteInstances(rf, rc, req)
		if err != nil {
			return false
		}
		meets := OnsiteReliability(rf, rc, n)+relEpsilon >= req
		minimal := n == 1 || OnsiteReliability(rf, rc, n-1) < req
		return meets && minimal
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOnsiteReliabilityEdges(t *testing.T) {
	if got := OnsiteReliability(0.9, 0.99, 0); got != 0 {
		t.Errorf("zero instances availability = %v, want 0", got)
	}
	if got := OnsiteReliability(0.9, 0.99, -3); got != 0 {
		t.Errorf("negative instances availability = %v, want 0", got)
	}
	// Monotone and bounded by cloudlet reliability.
	prev := 0.0
	for n := 1; n <= 20; n++ {
		got := OnsiteReliability(0.6, 0.95, n)
		if got <= prev {
			t.Fatalf("availability not strictly increasing at n=%d: %v <= %v", n, got, prev)
		}
		if got > 0.95 {
			t.Fatalf("availability %v exceeds cloudlet reliability", got)
		}
		prev = got
	}
}

// TestOffsiteReliability pins Eq. (10) by hand: Availability of one
// instance in no cloudlet, in one and in each of two.
func TestOffsiteReliability(t *testing.T) {
	n := &Network{
		Catalog: []VNF{{ID: 0, Name: "f", Demand: 1, Reliability: 0.9}},
		Cloudlets: []Cloudlet{
			{ID: 0, Node: -1, Capacity: 1, Reliability: 0.99},
			{ID: 1, Node: -1, Capacity: 1, Reliability: 0.95},
		},
	}
	if got := Availability(n, 0, nil); got != 0 {
		t.Errorf("no cloudlets availability = %v, want 0", got)
	}
	got := Availability(n, 0, []Assignment{{Cloudlet: 0, Instances: 1}})
	want := 0.9 * 0.99
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("one cloudlet = %v, want %v", got, want)
	}
	got = Availability(n, 0, []Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 1, Instances: 1}})
	want = 1 - (1-0.9*0.99)*(1-0.9*0.95)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("two cloudlets = %v, want %v", got, want)
	}
}

// Property: the log-domain weight test agrees with Eq. (10)'s product form.
func TestWeightEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		rf := 0.5 + 0.4999*rng.Float64()
		k := 1 + rng.Intn(6)
		rcs := make([]float64, k)
		total := 0.0
		for i := range rcs {
			rcs[i] = 0.8 + 0.1999*rng.Float64()
			total += OffsiteWeight(rf, rcs[i])
		}
		req := 0.5 + 0.4999*rng.Float64()
		direct := MeetsRequirement(eq10(rf, rcs), req)
		logdom := MeetsRequirement(total, RequirementWeight(req))
		// The two tests may disagree only within floating-point noise of
		// the boundary.
		if direct != logdom {
			return math.Abs(eq10(rf, rcs)-req) < 1e-9
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
