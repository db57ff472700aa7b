package slo

import (
	"math"
	"math/rand"
	"testing"

	"revnf/internal/core"
)

func TestEntryObservedAndMet(t *testing.T) {
	e := Entry{Required: 0.9}
	if e.Observed() != 1 || !e.Met() {
		t.Fatalf("unobserved entry = (%v, %v), want (1, met)", e.Observed(), e.Met())
	}
	e = Entry{Required: 0.9, ObservedSlots: 10, UpSlots: 9, DownSlots: 1}
	if e.Observed() != 0.9 || !e.Met() {
		t.Fatalf("exact-boundary entry = (%v, %v), want (0.9, met)", e.Observed(), e.Met())
	}
	e.UpSlots, e.DownSlots = 8, 2
	if e.Met() {
		t.Fatal("0.8 delivered must miss 0.9")
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, 0.9, 0.95, 4)
	tr.ObserveSlot(1, true)
	tr.ObserveSlot(1, false)
	tr.AddRepair(1, 1)
	tr.ObserveSlot(1, true)
	tr.ObserveSlot(1, true)

	e, ok := tr.Get(1)
	if !ok || e.ObservedSlots != 4 || e.UpSlots != 3 || e.DownSlots != 1 || e.Repairs != 1 || e.RepairLatencySlots != 1 {
		t.Fatalf("open entry = %+v, %v", e, ok)
	}
	if e.Finalized {
		t.Fatal("entry finalized early")
	}

	fin, ok := tr.Finalize(1, false)
	if !ok || !fin.Finalized {
		t.Fatalf("finalize = %+v, %v", fin, ok)
	}
	// 3/4 < 0.9: the miss must be explicitly degraded at finalize.
	if fin.Met() || !fin.Degraded {
		t.Fatalf("missed entry = %+v, want degraded", fin)
	}
	// Still readable after finalize.
	if got, ok := tr.Get(1); !ok || !got.Finalized {
		t.Fatalf("Get after finalize = %+v, %v", got, ok)
	}
	if _, ok := tr.Finalize(1, false); ok {
		t.Fatal("double finalize must report unknown")
	}
	if _, ok := tr.Finalize(99, false); ok {
		t.Fatal("unknown finalize must report unknown")
	}

	st := tr.Stats()
	if st.Tracked != 0 || st.Finalized != 1 || st.Met != 0 || st.Missed != 1 || st.Degraded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DowntimeSlots != 1 || st.Repairs != 1 {
		t.Fatalf("stats = %+v, want 1 downtime slot, 1 repair", st)
	}
	if st.MeanProvisioned != 0.95 || st.MeanObserved != 0.75 {
		t.Fatalf("means = %v/%v, want 0.95/0.75", st.MeanProvisioned, st.MeanObserved)
	}
	if h := tr.RepairLatency(); h.Count() != 1 || h.Sum() != 1 {
		t.Fatalf("latency histogram = count %d sum %v", h.Count(), h.Sum())
	}
}

func TestTrackerMetEntryStaysUndegraded(t *testing.T) {
	tr := NewTracker()
	tr.Register(2, 0.9, 0.95, 2)
	tr.ObserveSlot(2, true)
	tr.ObserveSlot(2, true)
	fin, _ := tr.Finalize(2, false)
	if !fin.Met() || fin.Degraded {
		t.Fatalf("clean entry = %+v", fin)
	}
	st := tr.Stats()
	if st.Met != 1 || st.Missed != 0 || st.Degraded != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Observations for unknown IDs are ignored.
	tr.ObserveSlot(2, false)
	tr.AddRepair(2, 3)
	if got, _ := tr.Get(2); got.DownSlots != 0 || got.Repairs != 0 || got.Degraded {
		t.Fatalf("finalized entry mutated: %+v", got)
	}
}

// TestTrackerFinalizeKeepsBudgetMark: a placement whose repair budget ran
// out closes degraded even when the slots it delivered met its requirement.
func TestTrackerFinalizeKeepsBudgetMark(t *testing.T) {
	tr := NewTracker()
	tr.Register(3, 0.9, 0.95, 2)
	tr.ObserveSlot(3, true)
	tr.ObserveSlot(3, true)
	fin, ok := tr.Finalize(3, true)
	if !ok || !fin.Met() || !fin.Degraded {
		t.Fatalf("budget-exhausted entry = %+v, %v; want met and degraded", fin, ok)
	}
	if st := tr.Stats(); st.Met != 1 || st.Missed != 0 || st.Degraded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEstimatorPosteriorMean(t *testing.T) {
	e := NewRateEstimator(2)
	// Beta(1,1) prior: mean 1/2.
	if got := e.CloudletReliability(0); got != 0.5 {
		t.Fatalf("prior mean = %v, want 0.5", got)
	}
	// 3 up, 1 down: Beta(4,2) → 2/3.
	for i := 0; i < 3; i++ {
		e.Observe(0, true)
	}
	e.Observe(0, false)
	if got, want := e.CloudletReliability(0), 4.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("posterior mean = %v, want %v", got, want)
	}
	// Cloudlet 1 untouched; out-of-range safe.
	if e.CloudletReliability(1) != 0.5 || e.CloudletReliability(2) != 0 || e.CloudletReliability(-1) != 0 {
		t.Fatal("estimator index handling broken")
	}
	e.Observe(5, true) // no-op
	if e.Cloudlets() != 2 || e.Observations(0) != 6 {
		t.Fatalf("cloudlets/observations = %d/%v", e.Cloudlets(), e.Observations(0))
	}
}

func TestCatalogEstimatorPrior(t *testing.T) {
	n := &core.Network{
		Catalog:   []core.VNF{{ID: 0, Name: "fw", Demand: 1, Reliability: 0.8}},
		Cloudlets: []core.Cloudlet{{ID: 0, Node: -1, Capacity: 4, Reliability: 0.97}},
	}
	e := NewCatalogEstimator(n, 4)
	if got := e.CloudletReliability(0); math.Abs(got-0.97) > 1e-12 {
		t.Fatalf("prior mean = %v, want catalog 0.97", got)
	}
	// One down slot against strength 4: (0.97·4)/(4+1).
	e.Observe(0, false)
	if got, want := e.CloudletReliability(0), 0.97*4/5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("posterior = %v, want %v", got, want)
	}
}

// TestEstimatorConverges feeds Bernoulli slot outcomes at a true rate far
// from the catalog prior and checks the posterior mean closes in.
func TestEstimatorConverges(t *testing.T) {
	n := &core.Network{
		Catalog:   []core.VNF{{ID: 0, Name: "fw", Demand: 1, Reliability: 0.8}},
		Cloudlets: []core.Cloudlet{{ID: 0, Node: -1, Capacity: 4, Reliability: 0.99}},
	}
	e := NewCatalogEstimator(n, 4)
	rng := rand.New(rand.NewSource(17))
	const trueRate = 0.7
	for i := 0; i < 5000; i++ {
		e.Observe(0, rng.Float64() < trueRate)
	}
	if got := e.CloudletReliability(0); math.Abs(got-trueRate) > 0.03 {
		t.Fatalf("estimate %v did not converge to %v", got, trueRate)
	}
	var src core.ReliabilitySource = e
	if src.CloudletReliability(0) == 0.99 {
		t.Fatal("estimator stuck at prior")
	}
}
