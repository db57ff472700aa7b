package baseline

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
			{ID: 0, Node: 0, Capacity: 10, Reliability: 0.97},
			{ID: 1, Node: 1, Capacity: 10, Reliability: 0.999},
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

func TestConstructorErrors(t *testing.T) {
	if _, err := NewGreedyOnsite(nil); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("NewGreedyOnsite(nil) err = %v", err)
	}
	if _, err := NewGreedyOffsite(nil); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("NewGreedyOffsite(nil) err = %v", err)
	}
	if _, err := NewFirstFitOnsite(nil); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("NewFirstFitOnsite(nil) err = %v", err)
	}
	if _, err := NewRandomOnsite(testNetwork(), nil); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("NewRandomOnsite(nil rng) err = %v", err)
	}
	if _, err := NewRejectAll(core.Scheme(9)); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("NewRejectAll(bad) err = %v", err)
	}
	bad := testNetwork()
	bad.Cloudlets = nil
	if _, err := NewGreedyOnsite(bad); !errors.Is(err, ErrBadNetwork) {
		t.Errorf("invalid network err = %v", err)
	}
}

func TestGreedyOnsitePrefersReliability(t *testing.T) {
	n := testNetwork()
	g, err := NewGreedyOnsite(n)
	if err != nil {
		t.Fatalf("NewGreedyOnsite: %v", err)
	}
	if g.Name() != "greedy-onsite" || g.Scheme() != core.OnSite {
		t.Errorf("identity = %q/%v", g.Name(), g.Scheme())
	}
	view := newLedger(t, n, 5)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 5}
	p, ok := core.Decide(g, req, view)
	if !ok {
		t.Fatal("rejected")
	}
	if p.Assignments[0].Cloudlet != 1 {
		t.Errorf("chose cloudlet %d, want most reliable 1", p.Assignments[0].Cloudlet)
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
}

func TestGreedyOnsiteFallsBackWhenFull(t *testing.T) {
	n := testNetwork()
	g, err := NewGreedyOnsite(n)
	if err != nil {
		t.Fatalf("NewGreedyOnsite: %v", err)
	}
	view := newLedger(t, n, 5)
	if err := view.Reserve(1, 1, 5, 10); err != nil { // fill best cloudlet
		t.Fatalf("Reserve: %v", err)
	}
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 5}
	p, ok := core.Decide(g, req, view)
	if !ok {
		t.Fatal("rejected despite space elsewhere")
	}
	if p.Assignments[0].Cloudlet != 0 {
		t.Errorf("chose cloudlet %d, want next-most-reliable 0", p.Assignments[0].Cloudlet)
	}
}

func TestGreedyOnsiteRejects(t *testing.T) {
	n := testNetwork()
	g, _ := NewGreedyOnsite(n)
	view := newLedger(t, n, 5)
	// Unattainable requirement.
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9999, Arrival: 1, Duration: 1, Payment: 5}
	if _, ok := core.Decide(g, req, view); ok {
		t.Error("unattainable requirement admitted")
	}
	// Full network.
	for j := 0; j < 3; j++ {
		if err := view.Reserve(j, 1, 5, 10); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	req = core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
	if _, ok := core.Decide(g, req, view); ok {
		t.Error("admitted into full network")
	}
}

func TestGreedyOffsite(t *testing.T) {
	n := testNetwork()
	g, err := NewGreedyOffsite(n)
	if err != nil {
		t.Fatalf("NewGreedyOffsite: %v", err)
	}
	if g.Name() != "greedy-offsite" || g.Scheme() != core.OffSite {
		t.Errorf("identity = %q/%v", g.Name(), g.Scheme())
	}
	view := newLedger(t, n, 5)
	// Require two cloudlets: best single is 0.95·0.999 ≈ 0.949.
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.99, Arrival: 1, Duration: 2, Payment: 5}
	p, ok := core.Decide(g, req, view)
	if !ok {
		t.Fatal("rejected")
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	// Must start from the most reliable cloudlet (ID 1).
	if p.Assignments[0].Cloudlet != 1 {
		t.Errorf("first assignment in cloudlet %d, want 1", p.Assignments[0].Cloudlet)
	}
}

func TestGreedyOffsiteRejectsUnattainable(t *testing.T) {
	n := testNetwork()
	g, _ := NewGreedyOffsite(n)
	view := newLedger(t, n, 5)
	all := oracle.Availability(0.95, []oracle.Site{{Rc: 0.97, N: 1}, {Rc: 0.999, N: 1}, {Rc: 0.95, N: 1}}, nil)
	req := core.Request{ID: 0, VNF: 0, Reliability: all + (1-all)/2, Arrival: 1, Duration: 1, Payment: 5}
	if _, ok := core.Decide(g, req, view); ok {
		t.Error("unattainable requirement admitted")
	}
}

func TestFirstFitOnsite(t *testing.T) {
	n := testNetwork()
	f, err := NewFirstFitOnsite(n)
	if err != nil {
		t.Fatalf("NewFirstFitOnsite: %v", err)
	}
	if f.Name() != "firstfit-onsite" || f.Scheme() != core.OnSite {
		t.Errorf("identity = %q/%v", f.Name(), f.Scheme())
	}
	view := newLedger(t, n, 5)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 5}
	p, ok := core.Decide(f, req, view)
	if !ok {
		t.Fatal("rejected")
	}
	if p.Assignments[0].Cloudlet != 0 {
		t.Errorf("chose cloudlet %d, want lowest-ID 0", p.Assignments[0].Cloudlet)
	}
	// Requirement above cloudlet 0's reliability (0.97) but below
	// cloudlet 1's: first-fit must skip to cloudlet 1.
	req = core.Request{ID: 1, VNF: 0, Reliability: 0.98, Arrival: 1, Duration: 2, Payment: 5}
	p, ok = core.Decide(f, req, view)
	if !ok {
		t.Fatal("rejected")
	}
	if p.Assignments[0].Cloudlet != 1 {
		t.Errorf("chose cloudlet %d, want 1", p.Assignments[0].Cloudlet)
	}
}

func TestRandomOnsite(t *testing.T) {
	n := testNetwork()
	r, err := NewRandomOnsite(n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("NewRandomOnsite: %v", err)
	}
	if r.Name() != "random-onsite" || r.Scheme() != core.OnSite {
		t.Errorf("identity = %q/%v", r.Name(), r.Scheme())
	}
	view := newLedger(t, n, 5)
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		req := core.Request{ID: i, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
		p, ok := core.Decide(r, req, view)
		if !ok {
			continue
		}
		if err := p.Validate(n, req); err != nil {
			t.Fatalf("placement invalid: %v", err)
		}
		seen[p.Assignments[0].Cloudlet] = true
	}
	if len(seen) < 2 {
		t.Errorf("random placement only ever used cloudlets %v", seen)
	}
	// Rejects when nothing is feasible.
	full := newLedger(t, n, 1)
	for j := 0; j < 3; j++ {
		if err := full.Reserve(j, 1, 1, 10); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	req := core.Request{ID: 99, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
	if _, ok := core.Decide(r, req, full); ok {
		t.Error("admitted into full network")
	}
}

func TestRejectAll(t *testing.T) {
	r, err := NewRejectAll(core.OnSite)
	if err != nil {
		t.Fatalf("NewRejectAll: %v", err)
	}
	if r.Name() != "reject-all" || r.Scheme() != core.OnSite {
		t.Errorf("identity = %q/%v", r.Name(), r.Scheme())
	}
	view := newLedger(t, testNetwork(), 5)
	req := core.Request{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 5}
	if _, ok := core.Decide(r, req, view); ok {
		t.Error("RejectAll admitted a request")
	}
}
