package revnf

import (
	"math/rand"
	"testing"
)

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: generate an instance, run both schemes plus baselines, compare
// against the offline bound, verify availability empirically, and read the
// theoretical guarantees.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := DefaultInstanceConfig(80)
	cfg.Cloudlets.Count = 5
	cfg.Trace.Horizon = 30
	cfg.Trace.MaxDuration = 6
	inst, err := NewInstance(cfg, 7)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}

	onsiteSched, err := NewScheduler(inst.Network, OnSite, WithHorizon(inst.Horizon))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	onsiteRes, err := Run(inst, onsiteSched)
	if err != nil {
		t.Fatalf("Run on-site: %v", err)
	}
	if onsiteRes.Revenue <= 0 || onsiteRes.Admitted == 0 {
		t.Fatalf("on-site result: revenue %v admitted %d", onsiteRes.Revenue, onsiteRes.Admitted)
	}
	if len(onsiteRes.Violations) != 0 {
		t.Errorf("enforced on-site produced violations")
	}

	offsiteSched, err := NewScheduler(inst.Network, OffSite, WithHorizon(inst.Horizon))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	offsiteRes, err := Run(inst, offsiteSched)
	if err != nil {
		t.Fatalf("Run off-site: %v", err)
	}
	if offsiteRes.Revenue <= 0 {
		t.Fatalf("off-site revenue %v", offsiteRes.Revenue)
	}

	greedyOn, err := NewScheduler(inst.Network, OnSite, WithAlgorithm(Greedy))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if _, err := Run(inst, greedyOn); err != nil {
		t.Fatalf("Run greedy on-site: %v", err)
	}
	greedyOff, err := NewScheduler(inst.Network, OffSite, WithAlgorithm(Greedy))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if _, err := Run(inst, greedyOff); err != nil {
		t.Fatalf("Run greedy off-site: %v", err)
	}

	// Offline LP bound dominates every online revenue.
	for _, scheme := range []Scheme{OnSite, OffSite} {
		bound, err := OfflineLPBound(inst, scheme)
		if err != nil {
			t.Fatalf("OfflineLPBound(%v): %v", scheme, err)
		}
		online := onsiteRes.Revenue
		if scheme == OffSite {
			online = offsiteRes.Revenue
		}
		if bound+1e-6 < online {
			t.Errorf("%v LP bound %v below online revenue %v", scheme, bound, online)
		}
	}

	// Raw Algorithm 1, which carries the violation licence: revenue must be
	// within the competitive ratio of the offline bound.
	raw, err := NewScheduler(inst.Network, OnSite, WithAlgorithm(RawPrimalDual), WithHorizon(inst.Horizon))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	rawRes, err := Run(inst, raw)
	if err != nil {
		t.Fatalf("Run(raw): %v", err)
	}
	analysis, err := AnalyzeOnsite(inst.Network, inst.Trace)
	if err != nil {
		t.Fatalf("AnalyzeOnsite: %v", err)
	}
	bound, err := OfflineLPBound(inst, OnSite)
	if err != nil {
		t.Fatalf("OfflineLPBound: %v", err)
	}
	if rawRes.Revenue*analysis.CompetitiveRatio+1e-6 < bound {
		t.Errorf("competitive ratio violated: raw %v × (1+a_max)=%v < offline bound %v",
			rawRes.Revenue, analysis.CompetitiveRatio, bound)
	}
	// Lemma 8: the worst overcommitment stays within ξ.
	if analysis.ViolationRatio > 0 && rawRes.MaxViolationRatio > 1+analysis.ViolationRatio {
		t.Errorf("violation ratio %v exceeds 1+ξ/cap_min = %v",
			rawRes.MaxViolationRatio, 1+analysis.ViolationRatio)
	}

	// Failure injection confirms the promised availability.
	report, err := EstimateAvailability(inst.Network, inst.Trace, onsiteRes.AdmittedPlacements(), 5000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("EstimateAvailability: %v", err)
	}
	if report.MetFraction < 0.99 {
		t.Errorf("only %.2f of placements met their requirement empirically", report.MetFraction)
	}
}

func TestSolveOfflineFacade(t *testing.T) {
	cfg := DefaultInstanceConfig(12)
	cfg.Cloudlets.Count = 3
	cfg.Trace.Horizon = 10
	cfg.Trace.MaxDuration = 3
	inst, err := NewInstance(cfg, 3)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	for _, scheme := range []Scheme{OnSite, OffSite} {
		sol, err := SolveOffline(inst, scheme, MIPConfig{MaxNodes: 200})
		if err != nil {
			t.Fatalf("SolveOffline(%v): %v", scheme, err)
		}
		if sol.Revenue < 0 || sol.UpperBound+1e-6 < sol.Revenue {
			t.Errorf("%v: revenue %v bound %v inconsistent", scheme, sol.Revenue, sol.UpperBound)
		}
	}
}

func TestDefaultCatalogFacade(t *testing.T) {
	if got := len(DefaultCatalog()); got != 10 {
		t.Fatalf("DefaultCatalog size = %d, want 10", got)
	}
	setup := DefaultExperimentSetup()
	if err := setup.Validate(); err != nil {
		t.Fatalf("DefaultExperimentSetup invalid: %v", err)
	}
}
