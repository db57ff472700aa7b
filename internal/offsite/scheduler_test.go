package offsite

import (
	"errors"
	"math/rand"
	"testing"

	"revnf/internal/core"
	"revnf/internal/oracle"
	"revnf/internal/timeslot"
)

func testNetwork() *core.Network {
	return &core.Network{
		Catalog: []core.VNF{
			{ID: 0, Name: "fw", Demand: 1, Reliability: 0.95},
			{ID: 1, Name: "ids", Demand: 2, Reliability: 0.9},
		},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: 0, Capacity: 10, Reliability: 0.99},
			{ID: 1, Node: 1, Capacity: 10, Reliability: 0.97},
			{ID: 2, Node: 2, Capacity: 10, Reliability: 0.95},
		},
	}
}

func newLedger(t *testing.T, n *core.Network, horizon int) *timeslot.Ledger {
	t.Helper()
	caps := make([]int, len(n.Cloudlets))
	for j, c := range n.Cloudlets {
		caps[j] = c.Capacity
	}
	l, err := timeslot.New(caps, horizon)
	if err != nil {
		t.Fatalf("timeslot.New: %v", err)
	}
	return l
}

func TestNewSchedulerErrors(t *testing.T) {
	if _, err := NewScheduler(nil, 5); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("nil network err = %v", err)
	}
	bad := testNetwork()
	bad.Cloudlets[0].Reliability = 2
	if _, err := NewScheduler(bad, 5); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("invalid network err = %v", err)
	}
	if _, err := NewScheduler(testNetwork(), 0); !errors.Is(err, ErrBadHorizon) {
		t.Errorf("bad horizon err = %v", err)
	}
}

func TestSchedulerIdentity(t *testing.T) {
	s, err := NewScheduler(testNetwork(), 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if s.Name() != "pd-offsite" || s.Scheme() != core.OffSite {
		t.Errorf("identity = %q/%v", s.Name(), s.Scheme())
	}
}

func TestDecideAdmitsAndMeetsReliability(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 10)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 10)
	// rf=0.95; single best cloudlet gives 0.95*0.99=0.9405; require more
	// so at least two cloudlets are needed.
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.99, Arrival: 1, Duration: 4, Payment: 8}
	p, ok := s.Decide(req, view)
	if !ok {
		t.Fatal("request rejected despite zero duals")
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	if len(p.Assignments) < 2 {
		t.Errorf("placement uses %d cloudlets, want ≥ 2 for R=0.99", len(p.Assignments))
	}
	for _, a := range p.Assignments {
		if a.Instances != 1 {
			t.Errorf("off-site assignment has %d instances", a.Instances)
		}
	}
	// Duals must rise on every selected cloudlet's window.
	for _, a := range p.Assignments {
		for slot := 1; slot <= 4; slot++ {
			if s.Lambda(a.Cloudlet, slot) <= 0 {
				t.Errorf("Lambda(%d,%d) not increased", a.Cloudlet, slot)
			}
		}
		if s.Lambda(a.Cloudlet, 5) != 0 {
			t.Errorf("Lambda(%d,5) touched outside window", a.Cloudlet)
		}
	}
}

func TestDecideMinimalPrefix(t *testing.T) {
	// With zero duals all prices tie at 0; the scheduler takes cloudlets
	// in ID order and must stop as soon as the weight target is met.
	n := testNetwork()
	s, err := NewScheduler(n, 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 5)
	// Low requirement: one cloudlet suffices (0.95·0.99 = 0.9405 ≥ 0.9).
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
	p, ok := s.Decide(req, view)
	if !ok {
		t.Fatal("rejected")
	}
	if len(p.Assignments) != 1 {
		t.Errorf("assignments = %d, want 1", len(p.Assignments))
	}
	if p.Assignments[0].Cloudlet != 0 {
		t.Errorf("chose cloudlet %d, want 0 (ID tie-break)", p.Assignments[0].Cloudlet)
	}
}

func TestDecideDualUpdateFormula(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 3)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 3)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 4}
	p, ok := s.Decide(req, view)
	if !ok {
		t.Fatal("rejected")
	}
	j := p.Assignments[0].Cloudlet
	w := core.OffsiteWeight(n.Catalog[0].Reliability, n.Cloudlets[j].Reliability)
	needW := core.RequirementWeight(req.Reliability)
	ratio := needW * float64(n.Catalog[0].Demand) / (w * float64(n.Cloudlets[j].Capacity))
	want := ratio * req.Payment / 2 // λ was zero → additive term only
	for slot := 1; slot <= 2; slot++ {
		if got := s.Lambda(j, slot); !core.FloatEqTol(got, want, 1e-12) {
			t.Errorf("Lambda(%d,%d) = %v, want %v", j, slot, got, want)
		}
	}
}

// TestWeightsMatchClosedForm: the scheduler's cached off-site weights are
// bit-identical to the closed form on random reliabilities, so caching
// them changes no decision.
func TestWeightsMatchClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := &core.Network{}
	for f := 0; f < 8; f++ {
		n.Catalog = append(n.Catalog, core.VNF{ID: f, Name: "f", Demand: 1, Reliability: 0.5 + 0.4999*rng.Float64()})
	}
	for j := 0; j < 12; j++ {
		n.Cloudlets = append(n.Cloudlets, core.Cloudlet{ID: j, Node: -1, Capacity: 10, Reliability: 0.5 + 0.4999*rng.Float64()})
	}
	s, err := NewScheduler(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for f, v := range n.Catalog {
		for j, c := range n.Cloudlets {
			if w, cw := s.weight[f][j], core.OffsiteWeight(v.Reliability, c.Reliability); w != cw {
				t.Fatalf("weight[%d][%d] = %v, closed form %v", f, j, w, cw)
			}
		}
	}
}

func TestDecidePaymentFilterRejects(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 5)
	admitted := 0
	for i := 0; i < 300; i++ {
		req := core.Request{ID: i, VNF: 0, Reliability: 0.95, Arrival: 1, Duration: 5, Payment: 10}
		if _, ok := s.Decide(req, view); ok {
			admitted++
		}
	}
	if admitted == 0 || admitted == 300 {
		t.Fatalf("admitted = %d; duals never priced anything out", admitted)
	}
	req := core.Request{ID: 999, VNF: 0, Reliability: 0.95, Arrival: 1, Duration: 5, Payment: 1e-6}
	if _, ok := s.Decide(req, view); ok {
		t.Error("cheap request admitted despite saturated duals")
	}
}

func TestDecideUnattainableRequirement(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 5)
	// Even all three cloudlets: 1-(1-.95*.99)(1-.95*.97)(1-.95*.95) ≈ 0.9997.
	all := oracle.Availability(0.95, []oracle.Site{{Rc: 0.99, N: 1}, {Rc: 0.97, N: 1}, {Rc: 0.95, N: 1}}, nil)
	req := core.Request{ID: 0, VNF: 0, Reliability: all + (1-all)/2, Arrival: 1, Duration: 1, Payment: 100}
	if _, ok := s.Decide(req, view); ok {
		t.Error("unattainable requirement admitted")
	}
}

func TestDecideSkipsFullCloudlets(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 2)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 2)
	// Fill cloudlet 0 entirely; the scheduler must work around it.
	if err := view.Reserve(0, 1, 2, 10); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 5}
	p, ok := s.Decide(req, view)
	if !ok {
		t.Fatal("rejected despite free cloudlets")
	}
	for _, a := range p.Assignments {
		if a.Cloudlet == 0 {
			t.Error("placed instance in a full cloudlet")
		}
	}
}

func TestDecideRejectsWhenAllFull(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 2)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 2)
	for j := 0; j < 3; j++ {
		if err := view.Reserve(j, 1, 2, 10); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 5}
	if _, ok := s.Decide(req, view); ok {
		t.Error("admitted into a full network")
	}
}

func TestDecideOutOfHorizon(t *testing.T) {
	s, err := NewScheduler(testNetwork(), 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, testNetwork(), 5)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 5, Duration: 2, Payment: 5}
	if _, ok := s.Decide(req, view); ok {
		t.Error("request past horizon admitted")
	}
}

func TestLambdaAccessorBounds(t *testing.T) {
	s, err := NewScheduler(testNetwork(), 3)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if s.Lambda(-1, 1) != 0 || s.Lambda(0, 0) != 0 || s.Lambda(0, 9) != 0 || s.Lambda(5, 1) != 0 {
		t.Error("out-of-range Lambda not zero")
	}
}

func TestWithSortKeyNames(t *testing.T) {
	rel, err := NewScheduler(testNetwork(), 5, WithSortKey(SortByReliability))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if rel.Name() != "pd-offsite-relsort" {
		t.Errorf("Name = %q", rel.Name())
	}
	res, err := NewScheduler(testNetwork(), 5, WithSortKey(SortByResidual))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if res.Name() != "pd-offsite-residualsort" {
		t.Errorf("Name = %q", res.Name())
	}
	price, err := NewScheduler(testNetwork(), 5, WithSortKey(SortByPrice))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if price.Name() != "pd-offsite" {
		t.Errorf("Name = %q", price.Name())
	}
}

func TestDecideSortKeyBehaviors(t *testing.T) {
	n := testNetwork()
	view := newLedger(t, n, 5)
	// Reliability-first ordering must start from the most reliable
	// cloudlet (0 at 0.99) when duals are zero.
	rel, err := NewScheduler(n, 5, WithSortKey(SortByReliability))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
	p, ok := rel.Decide(req, view)
	if !ok || p.Assignments[0].Cloudlet != 0 {
		t.Errorf("relsort first choice = %+v, want cloudlet 0", p.Assignments)
	}
	// Residual-first ordering must start from the cloudlet with the most
	// free capacity (fill cloudlet 0 to tilt it).
	if err := view.Reserve(0, 1, 5, 8); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	res, err := NewScheduler(n, 5, WithSortKey(SortByResidual))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	req2 := core.Request{ID: 1, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
	p2, ok := res.Decide(req2, view)
	if !ok {
		t.Fatal("residualsort rejected")
	}
	if got := p2.Assignments[0].Cloudlet; got == 0 {
		t.Errorf("residualsort chose the fullest cloudlet %d", got)
	}
}
