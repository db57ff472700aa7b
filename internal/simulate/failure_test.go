package simulate

import (
	"math"
	"math/rand"
	"testing"

	"revnf/internal/baseline"
	"revnf/internal/core"
	"revnf/internal/oracle"
)

func TestEstimateAvailabilityMatchesAnalytical(t *testing.T) {
	inst := testInstance(t, 1)
	inst.Trace[0] = core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 1}
	p := core.Placement{
		Request:     0,
		Scheme:      core.OnSite,
		Assignments: []core.Assignment{{Cloudlet: 0, Instances: 2}},
	}
	rng := rand.New(rand.NewSource(42))
	rep, err := EstimateAvailability(inst.Network, inst.Trace, []core.Placement{p}, 200000, rng)
	if err != nil {
		t.Fatalf("EstimateAvailability: %v", err)
	}
	if len(rep.PerRequest) != 1 {
		t.Fatalf("PerRequest entries = %d", len(rep.PerRequest))
	}
	ra := rep.PerRequest[0]
	want := core.OnsiteReliability(0.95, 0.99, 2)
	if !core.FloatEqTol(ra.Analytical, want, 1e-12) {
		t.Errorf("Analytical = %v, want %v", ra.Analytical, want)
	}
	// 200k trials → standard error ~0.0006; allow 5σ.
	if math.Abs(ra.Empirical-want) > 0.004 {
		t.Errorf("Empirical = %v too far from analytical %v", ra.Empirical, want)
	}
	if !ra.Met {
		t.Error("valid placement not marked Met")
	}
	if rep.MetFraction != 1 {
		t.Errorf("MetFraction = %v, want 1", rep.MetFraction)
	}
}

func TestEstimateAvailabilityOffsite(t *testing.T) {
	inst := testInstance(t, 1)
	inst.Trace[0] = core.Request{ID: 0, VNF: 0, Reliability: 0.99, Arrival: 1, Duration: 1, Payment: 1}
	p := core.Placement{
		Request: 0,
		Scheme:  core.OffSite,
		Assignments: []core.Assignment{
			{Cloudlet: 0, Instances: 1},
			{Cloudlet: 1, Instances: 1},
		},
	}
	rng := rand.New(rand.NewSource(7))
	rep, err := EstimateAvailability(inst.Network, inst.Trace, []core.Placement{p}, 100000, rng)
	if err != nil {
		t.Fatalf("EstimateAvailability: %v", err)
	}
	ra := rep.PerRequest[0]
	want := oracle.Availability(0.95, []oracle.Site{{Rc: 0.99, N: 1}, {Rc: 0.999, N: 1}}, nil)
	if math.Abs(ra.Empirical-want) > 0.006 {
		t.Errorf("Empirical = %v too far from analytical %v", ra.Empirical, want)
	}
}

func TestEstimateAvailabilityEndToEnd(t *testing.T) {
	inst := testInstance(t, 30)
	g, err := baseline.NewGreedyOnsite(inst.Network)
	if err != nil {
		t.Fatalf("NewGreedyOnsite: %v", err)
	}
	res, err := Run(inst, g)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep, err := EstimateAvailability(inst.Network, inst.Trace, res.AdmittedPlacements(), 20000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("EstimateAvailability: %v", err)
	}
	if len(rep.PerRequest) != res.Admitted {
		t.Fatalf("report entries = %d, want %d", len(rep.PerRequest), res.Admitted)
	}
	// Every placement passed core validation, so every empirical estimate
	// must be consistent with the requirement.
	if rep.MetFraction < 1 {
		for _, ra := range rep.PerRequest {
			if !ra.Met {
				t.Errorf("request %d: empirical %v < required %v", ra.Request, ra.Empirical, ra.Required)
			}
		}
	}
}

func TestEstimateAvailabilityErrors(t *testing.T) {
	inst := testInstance(t, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := EstimateAvailability(inst.Network, inst.Trace, nil, 0, rng); err == nil {
		t.Error("zero trials did not error")
	}
	if _, err := EstimateAvailability(inst.Network, inst.Trace, nil, 10, nil); err == nil {
		t.Error("nil RNG did not error")
	}
	badPlacement := []core.Placement{{Request: 99, Scheme: core.OnSite, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}}}}
	if _, err := EstimateAvailability(inst.Network, inst.Trace, badPlacement, 10, rng); err == nil {
		t.Error("unknown request did not error")
	}
	weak := []core.Placement{{Request: 0, Scheme: core.OnSite, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}}}}
	inst.Trace[0].Reliability = 0.99 // one instance at 0.99·0.95 < 0.99
	if _, err := EstimateAvailability(inst.Network, inst.Trace, weak, 10, rng); err == nil {
		t.Error("below-requirement placement did not error")
	}
}

func TestEstimateAvailabilityEmptyPlacements(t *testing.T) {
	inst := testInstance(t, 1)
	rep, err := EstimateAvailability(inst.Network, inst.Trace, nil, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("EstimateAvailability: %v", err)
	}
	if rep.MetFraction != 0 || len(rep.PerRequest) != 0 {
		t.Errorf("empty report = %+v", rep)
	}
}
