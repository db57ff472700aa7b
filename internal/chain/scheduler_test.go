package chain

import (
	"errors"
	"testing"

	"revnf/internal/core"
	"revnf/internal/timeslot"
)

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

func chainRequest(id int, vnfs []int, rel float64, pay float64) Request {
	return Request{ID: id, VNFs: vnfs, Reliability: rel, Arrival: 1, Duration: 2, Payment: pay}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewOnsiteScheduler(nil, 5); !errors.Is(err, ErrBadChain) {
		t.Errorf("nil network err = %v", err)
	}
	if _, err := NewOffsiteScheduler(testNetwork(), 0); !errors.Is(err, ErrBadChain) {
		t.Errorf("bad horizon err = %v", err)
	}
	if _, err := NewGreedyOnsite(nil, 5); !errors.Is(err, ErrBadChain) {
		t.Errorf("greedy nil network err = %v", err)
	}
	if _, err := NewGreedyOffsite(testNetwork(), -1); !errors.Is(err, ErrBadChain) {
		t.Errorf("greedy bad horizon err = %v", err)
	}
}

func TestOnsiteSchedulerAdmits(t *testing.T) {
	n := testNetwork()
	s, err := NewOnsiteScheduler(n, 10)
	if err != nil {
		t.Fatalf("NewOnsiteScheduler: %v", err)
	}
	if s.Name() != "pd-chain-onsite" || s.Scheme() != core.OnSite {
		t.Errorf("identity %q/%v", s.Name(), s.Scheme())
	}
	view := newLedger(t, n, 10)
	req := chainRequest(0, []int{0, 1, 2}, 0.92, 20)
	p, ok := core.Decide(s, req, view)
	if !ok {
		t.Fatal("chain rejected with empty duals")
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	// All stages in one cloudlet.
	cl := p.Stages[0].Assignments[0].Cloudlet
	for _, st := range p.Stages {
		if st.Assignments[0].Cloudlet != cl {
			t.Error("on-site chain split across cloudlets")
		}
	}
}

func TestOnsiteSchedulerPricesOut(t *testing.T) {
	n := testNetwork()
	s, err := NewOnsiteScheduler(n, 5)
	if err != nil {
		t.Fatalf("NewOnsiteScheduler: %v", err)
	}
	view := newLedger(t, n, 5)
	admitted := 0
	for i := 0; i < 100; i++ {
		req := Request{ID: i, VNFs: []int{0, 1}, Reliability: 0.9, Arrival: 1, Duration: 5, Payment: 15}
		if p, ok := core.Decide(s, req, view); ok {
			if ok, err := view.ReserveAll(1, 5, p.Footprint(nil, n.Catalog), false); !ok || err != nil {
				t.Fatalf("scheduler overbooked: %v", err)
			}
			admitted++
		}
	}
	if admitted == 0 || admitted == 100 {
		t.Fatalf("admitted %d of 100; expected pricing to engage", admitted)
	}
	cheap := Request{ID: 999, VNFs: []int{0}, Reliability: 0.9, Arrival: 1, Duration: 5, Payment: 1e-9}
	if _, ok := core.Decide(s, cheap, view); ok {
		t.Error("cheap request admitted against saturated duals")
	}
}

func TestOnsiteSchedulerRejectsInfeasible(t *testing.T) {
	n := testNetwork()
	s, _ := NewOnsiteScheduler(n, 5)
	view := newLedger(t, n, 5)
	// Requirement above all cloudlet reliabilities.
	req := chainRequest(0, []int{0}, 0.9999, 100)
	if _, ok := core.Decide(s, req, view); ok {
		t.Error("unattainable chain admitted")
	}
	// Out of horizon.
	bad := Request{ID: 1, VNFs: []int{0}, Reliability: 0.9, Arrival: 5, Duration: 3, Payment: 5}
	if _, ok := core.Decide(s, bad, view); ok {
		t.Error("out-of-horizon chain admitted")
	}
	// Empty chain.
	empty := Request{ID: 2, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
	if _, ok := core.Decide(s, empty, view); ok {
		t.Error("empty chain admitted")
	}
}

func TestOffsiteSchedulerAdmitsDisjointStages(t *testing.T) {
	n := testNetwork()
	s, err := NewOffsiteScheduler(n, 10)
	if err != nil {
		t.Fatalf("NewOffsiteScheduler: %v", err)
	}
	if s.Name() != "pd-chain-offsite" || s.Scheme() != core.OffSite {
		t.Errorf("identity %q/%v", s.Name(), s.Scheme())
	}
	view := newLedger(t, n, 10)
	req := chainRequest(0, []int{0, 2}, 0.9, 20)
	p, ok := core.Decide(s, req, view)
	if !ok {
		t.Fatal("chain rejected with empty duals")
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	seen := map[int]bool{}
	for _, st := range p.Stages {
		for _, a := range st.Assignments {
			if seen[a.Cloudlet] {
				t.Errorf("anti-affinity violated: cloudlet %d reused", a.Cloudlet)
			}
			seen[a.Cloudlet] = true
		}
	}
}

func TestOffsiteSchedulerRejectsWhenStagesCannotFit(t *testing.T) {
	n := testNetwork()
	s, _ := NewOffsiteScheduler(n, 5)
	view := newLedger(t, n, 5)
	// Fill all but one cloudlet; a 2-stage chain needing disjoint
	// cloudlets per stage cannot be placed if the lone free cloudlet
	// cannot satisfy a stage target alone... use a high requirement so
	// each stage needs multiple cloudlets.
	for j := 0; j < 3; j++ {
		if err := view.Reserve(j, 1, 5, n.Cloudlets[j].Capacity); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	req := chainRequest(0, []int{0, 1}, 0.97, 50)
	if _, ok := core.Decide(s, req, view); ok {
		t.Error("chain admitted without room for disjoint stages")
	}
}

func TestGreedyOnsiteChain(t *testing.T) {
	n := testNetwork()
	g, err := NewGreedyOnsite(n, 10)
	if err != nil {
		t.Fatalf("NewGreedyOnsite: %v", err)
	}
	if g.Name() != "greedy-chain-onsite" || g.Scheme() != core.OnSite {
		t.Errorf("identity %q/%v", g.Name(), g.Scheme())
	}
	view := newLedger(t, n, 10)
	req := chainRequest(0, []int{0, 1}, 0.9, 10)
	p, ok := core.Decide(g, req, view)
	if !ok {
		t.Fatal("greedy rejected an easy chain")
	}
	// Most reliable cloudlet is 0.
	if p.Stages[0].Assignments[0].Cloudlet != 0 {
		t.Errorf("greedy chose cloudlet %d, want 0", p.Stages[0].Assignments[0].Cloudlet)
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	if _, ok := core.Decide(g, Request{ID: 1, Reliability: 0.9, Arrival: 1, Duration: 1}, view); ok {
		t.Error("empty chain admitted")
	}
}

func TestGreedyOffsiteChain(t *testing.T) {
	n := testNetwork()
	g, err := NewGreedyOffsite(n, 10)
	if err != nil {
		t.Fatalf("NewGreedyOffsite: %v", err)
	}
	if g.Name() != "greedy-chain-offsite" || g.Scheme() != core.OffSite {
		t.Errorf("identity %q/%v", g.Name(), g.Scheme())
	}
	view := newLedger(t, n, 10)
	req := chainRequest(0, []int{0, 2}, 0.9, 10)
	p, ok := core.Decide(g, req, view)
	if !ok {
		t.Fatal("greedy rejected an easy chain")
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	seen := map[int]bool{}
	for _, st := range p.Stages {
		for _, a := range st.Assignments {
			if seen[a.Cloudlet] {
				t.Errorf("greedy anti-affinity violated")
			}
			seen[a.Cloudlet] = true
		}
	}
	// Unattainable chain.
	hard := chainRequest(1, []int{0, 1, 2}, 0.999, 100)
	if _, ok := core.Decide(g, hard, view); ok {
		t.Error("unattainable chain admitted")
	}
}
