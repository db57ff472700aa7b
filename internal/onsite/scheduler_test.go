package onsite

import (
	"errors"
	"testing"

	"revnf/internal/core"
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
			{ID: 1, Node: 1, Capacity: 10, Reliability: 0.999},
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
	bad.Cloudlets[0].Capacity = 0
	if _, err := NewScheduler(bad, 5); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("invalid network err = %v", err)
	}
	if _, err := NewScheduler(testNetwork(), 0); !errors.Is(err, ErrBadHorizon) {
		t.Errorf("bad horizon err = %v", err)
	}
	if _, err := NewScheduler(testNetwork(), 5, WithScale(0.5)); !errors.Is(err, ErrBadScale) {
		t.Errorf("bad scale err = %v", err)
	}
}

func TestSchedulerIdentity(t *testing.T) {
	raw, err := NewScheduler(testNetwork(), 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if raw.Name() != "pd-onsite-raw" || raw.Scheme() != core.OnSite {
		t.Errorf("raw identity = %q/%v", raw.Name(), raw.Scheme())
	}
	enf, err := NewScheduler(testNetwork(), 5, WithCapacityEnforcement())
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if enf.Name() != "pd-onsite" {
		t.Errorf("enforced name = %q", enf.Name())
	}
}

// TestSchedulerNameIgnoresOptionOrder: the additive ablation reports its
// name whichever of its two options comes first.
func TestSchedulerNameIgnoresOptionOrder(t *testing.T) {
	for _, opts := range [][]Option{
		{WithAdditiveDuals(), WithCapacityEnforcement()},
		{WithCapacityEnforcement(), WithAdditiveDuals()},
	} {
		s, err := NewScheduler(testNetwork(), 5, opts...)
		if err != nil {
			t.Fatalf("NewScheduler: %v", err)
		}
		if s.Name() != "pd-onsite-additive" {
			t.Errorf("additive enforced name = %q, want pd-onsite-additive", s.Name())
		}
	}
}

func TestDecideAdmitsFirstRequest(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 10)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 10)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 5}
	p, ok := s.Decide(req, view)
	if !ok {
		t.Fatal("first request rejected despite zero duals")
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	// Instance count must equal the closed-form minimum for the chosen
	// cloudlet.
	a := p.Assignments[0]
	wantN, err := core.OnsiteInstances(n.Catalog[0].Reliability, n.Cloudlets[a.Cloudlet].Reliability, req.Reliability)
	if err != nil {
		t.Fatalf("OnsiteInstances: %v", err)
	}
	if a.Instances != wantN {
		t.Errorf("instances = %d, want %d", a.Instances, wantN)
	}
	// Duals on the chosen cloudlet's slots must now be positive.
	for slot := 1; slot <= 3; slot++ {
		if s.Lambda(a.Cloudlet, slot) <= 0 {
			t.Errorf("Lambda(%d,%d) = %v, want > 0", a.Cloudlet, slot, s.Lambda(a.Cloudlet, slot))
		}
	}
	// Slots outside the window stay at zero.
	if s.Lambda(a.Cloudlet, 4) != 0 {
		t.Errorf("Lambda(%d,4) = %v, want 0", a.Cloudlet, s.Lambda(a.Cloudlet, 4))
	}
}

func TestDecideDualUpdateFormula(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 4)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 4)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 2, Duration: 2, Payment: 6}
	p, ok := s.Decide(req, view)
	if !ok {
		t.Fatal("request rejected")
	}
	j := p.Assignments[0].Cloudlet
	nInst := p.Assignments[0].Instances
	units := float64(nInst * n.Catalog[0].Demand)
	capj := float64(n.Cloudlets[j].Capacity)
	// λ was 0, so after Eq. (34): λ = 0·(1+units/cap) + units·pay/(d·cap).
	want := units * req.Payment / (2 * capj)
	for slot := 2; slot <= 3; slot++ {
		if got := s.Lambda(j, slot); !core.FloatEqTol(got, want, 1e-12) {
			t.Errorf("Lambda(%d,%d) = %v, want %v", j, slot, got, want)
		}
	}
}

func TestDecideRejectsWhenPriceTooHigh(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 5)
	// Saturate duals with many high-paying admissions on the same window.
	admitted := 0
	for i := 0; i < 200; i++ {
		req := core.Request{ID: i, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 5, Payment: 10}
		if _, ok := s.Decide(req, view); ok {
			admitted++
		}
	}
	if admitted == 0 || admitted == 200 {
		t.Fatalf("admitted = %d; dual prices never priced anything out", admitted)
	}
	// A low-payment request must now be rejected.
	req := core.Request{ID: 999, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 5, Payment: 0.001}
	if _, ok := s.Decide(req, view); ok {
		t.Error("cheap request admitted despite saturated duals")
	}
}

func TestDecideInfeasibleRequirement(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 5)
	// Requirement above every cloudlet reliability (max 0.999).
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9995, Arrival: 1, Duration: 1, Payment: 100}
	if _, ok := s.Decide(req, view); ok {
		t.Error("request admitted despite unattainable requirement")
	}
}

func TestDecideOutOfHorizon(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 5)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 5)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 4, Duration: 3, Payment: 5}
	if _, ok := s.Decide(req, view); ok {
		t.Error("request past horizon admitted")
	}
	req = core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 0, Duration: 2, Payment: 5}
	if _, ok := s.Decide(req, view); ok {
		t.Error("request with arrival 0 admitted")
	}
}

func TestDecideEnforcedRespectsCapacity(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 3, WithCapacityEnforcement())
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 3)
	// Each admission of VNF 1 (demand 2, rf 0.9, R 0.9) needs N instances;
	// with rc=0.99: N=2 → 4 units. Capacity 10 per cloudlet → 2 per
	// cloudlet fit plus remainder.
	admitted := 0
	for i := 0; i < 20; i++ {
		req := core.Request{ID: i, VNF: 1, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 100}
		p, ok := s.Decide(req, view)
		if !ok {
			continue
		}
		a := p.Assignments[0]
		units := a.Instances * n.Catalog[1].Demand
		if err := view.Reserve(a.Cloudlet, 1, 3, units); err != nil {
			t.Fatalf("enforced scheduler overbooked: %v", err)
		}
		admitted++
	}
	if admitted == 0 {
		t.Fatal("no admissions at all")
	}
	if len(view.Violations()) != 0 {
		t.Errorf("violations under enforcement: %v", view.Violations())
	}
}

func TestDecideEnforcedRejectsWhenFull(t *testing.T) {
	n := testNetwork()
	s, err := NewScheduler(n, 2, WithCapacityEnforcement())
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	view := newLedger(t, n, 2)
	// Fill both cloudlets completely.
	for j := 0; j < 2; j++ {
		if err := view.Reserve(j, 1, 2, 10); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 100}
	if _, ok := s.Decide(req, view); ok {
		t.Error("request admitted into full network")
	}
}

func TestWithScaleReducesAdmissions(t *testing.T) {
	n := testNetwork()
	countAdmissions := func(scale float64) int {
		var opts []Option
		if scale > 1 {
			opts = append(opts, WithScale(scale))
		}
		s, err := NewScheduler(n, 5, opts...)
		if err != nil {
			t.Fatalf("NewScheduler: %v", err)
		}
		view := newLedger(t, n, 5)
		admitted := 0
		for i := 0; i < 100; i++ {
			req := core.Request{ID: i, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 5, Payment: 3}
			if _, ok := s.Decide(req, view); ok {
				admitted++
			}
		}
		return admitted
	}
	base := countAdmissions(1)
	scaled := countAdmissions(4)
	if scaled > base {
		t.Errorf("scale 4 admitted %d > unscaled %d", scaled, base)
	}
	if base == 0 {
		t.Error("unscaled variant admitted nothing")
	}
}

func TestLambdaAccessorBounds(t *testing.T) {
	s, err := NewScheduler(testNetwork(), 3)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if s.Lambda(-1, 1) != 0 || s.Lambda(0, 0) != 0 || s.Lambda(0, 4) != 0 || s.Lambda(9, 1) != 0 {
		t.Error("out-of-range Lambda not zero")
	}
}
