package repair

import (
	"math"
	"testing"

	"revnf/internal/core"
	"revnf/internal/oracle"
)

func repairNetwork() *core.Network {
	return &core.Network{
		Catalog: []core.VNF{{ID: 0, Name: "fw", Demand: 2, Reliability: 0.8}},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: -1, Capacity: 10, Reliability: 0.99},
			{ID: 1, Node: -1, Capacity: 10, Reliability: 0.95},
		},
	}
}

// TestMeetsMatchesCoreFormulas holds the health check to the state
// enumeration — Meets calls core.Availability, so comparing it with core's
// closed forms would compare a function with itself.
func TestMeetsMatchesCoreFormulas(t *testing.T) {
	n := repairNetwork()
	req := core.Request{ID: 1, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2}
	enumerate := func(n *core.Network, alive []core.Assignment) float64 {
		var sites []oracle.Site
		for _, a := range alive {
			sites = append(sites, oracle.Site{Rc: n.Cloudlets[a.Cloudlet].Reliability, N: a.Instances})
		}
		return oracle.Availability(n.Catalog[req.VNF].Reliability, sites, nil)
	}
	for _, tc := range []struct {
		name  string
		alive []core.Assignment
		meets bool
	}{
		{"one cloudlet, two instances (on-site)", []core.Assignment{{Cloudlet: 0, Instances: 2}}, true}, // 0.9504
		{"one instance per cloudlet (off-site)", []core.Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 1, Instances: 1}}, true},
		{"mixed survivors", []core.Assignment{{Cloudlet: 0, Instances: 0}, {Cloudlet: 1, Instances: 3}}, true},
		{"degraded to one instance", []core.Assignment{{Cloudlet: 1, Instances: 1}}, false}, // 0.76
		{"every instance lost", []core.Assignment{{Cloudlet: 0, Instances: 0}}, false},
		{"empty", nil, false},
	} {
		got, ok := Meets(n, req, tc.alive)
		if want := enumerate(n, tc.alive); math.Abs(got-want) > 1e-12 || ok != tc.meets {
			t.Errorf("%s: Meets = (%v, %v), enumeration says (%v, %v)", tc.name, got, ok, want, tc.meets)
		}
	}

	// Learned rates reach the check through the network they are folded
	// into; the catalog's 0.99 would have met.
	learned := n.WithReliabilities(fixedSource{0: 0.5})
	alive := []core.Assignment{{Cloudlet: 0, Instances: 2}}
	got, ok := Meets(learned, req, alive)
	if want := enumerate(learned, alive); math.Abs(got-want) > 1e-12 || math.Abs(want-0.48) > 1e-12 || ok {
		t.Errorf("learned-rate availability = (%v, %v), enumeration says (%v, false)", got, ok, want)
	}
}

type fixedSource map[int]float64

func (s fixedSource) CloudletReliability(j int) float64 { return s[j] }

func TestEpisodeLifecycle(t *testing.T) {
	var p Episode // the zero value is healthy

	// Healthy observations are free.
	if opened := p.Observe(0, true); opened || p.failed {
		t.Fatalf("healthy observe opened %v, failed %v", opened, p.failed)
	}

	// Failure opens exactly one episode.
	if opened := p.Observe(3, false); !opened {
		t.Fatal("first failing observe did not open an episode")
	}
	if opened := p.Observe(4, false); opened || !p.failed {
		t.Fatalf("second failing observe opened %v, failed %v; want one open episode", opened, p.failed)
	}

	// Success closes the episode with the latency since it opened.
	if lat := p.Succeeded(5); lat != 2 {
		t.Fatalf("latency = %d, want 2", lat)
	}
	if p.failed {
		t.Fatal("episode still open after a repair")
	}
}

func TestSelfRecoveryClosesWithoutRepair(t *testing.T) {
	var p Episode
	p.Observe(2, false)
	// The cloudlet came back: meets again, no repair recorded.
	if opened := p.Observe(3, true); opened || p.failed {
		t.Fatalf("recovery observe opened %v, failed %v", opened, p.failed)
	}
	// A later failure opens a fresh episode with a fresh budget.
	p.attempts = 2
	if opened := p.Observe(5, false); !opened || p.attempts != 0 || p.failedAt != 5 {
		t.Fatalf("second episode: opened %v, %+v", opened, p)
	}
}

func TestDegradedAfterBudgetExhausted(t *testing.T) {
	var p Episode
	p.Observe(1, false)
	if p.Failed(2) {
		t.Fatal("budget of 2 exhausted after 1 failed attempt")
	}
	if !p.Failed(2) {
		t.Fatal("budget of 2 not exhausted after 2 failed attempts")
	}
	// The engine stops observing once it marks the placement degraded; the
	// episode itself stays open.
	if !p.failed || p.attempts != 2 {
		t.Fatalf("exhausted episode = %+v", p)
	}
}

func TestStrayTransitionsAreNoOps(t *testing.T) {
	var p Episode
	// Success/failure without an open episode must not move the state.
	if lat := p.Succeeded(4); lat != 0 {
		t.Fatalf("stray success latency = %d", lat)
	}
	if p.Failed(1) {
		t.Fatal("stray failure exhausted a budget")
	}
	if p != (Episode{}) {
		t.Fatalf("stray transitions left %+v, want the zero value", p)
	}
}

func TestMeetsPlacementSharedFootprints(t *testing.T) {
	n := repairNetwork()
	rf := n.Catalog[0].Reliability
	req := core.Request{ID: 2, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2}
	p := core.Placement{
		Request:     2,
		Scheme:      core.Shared,
		Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}},
		Backup:      &core.SharedBackup{Group: 1, Cloudlet: 1, PoolSize: 2},
	}
	floor := rf * 0.95 // peers at the least reliable cloudlet

	// Both primary and pooled backup alive: the admitted availability,
	// which the enumeration plays out peer by peer.
	alive := []core.Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 1, Instances: 1}}
	got, ok := MeetsPlacement(n, req, p, alive)
	pool := &oracle.Pool{Rc: 0.95, Peers: []float64{floor}}
	want := oracle.Availability(rf, []oracle.Site{{Rc: 0.99, N: 1}}, pool)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("both alive: availability = %v, want %v", got, want)
	}
	if !ok {
		t.Errorf("both alive: availability %v must meet %v", got, req.Reliability)
	}

	// Backup cloudlet down: only the dedicated primary path remains.
	alive = []core.Assignment{{Cloudlet: 0, Instances: 1}}
	got, ok = MeetsPlacement(n, req, p, alive)
	if want = oracle.Availability(rf, []oracle.Site{{Rc: 0.99, N: 1}}, nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("primary only: availability = %v, want %v", got, want)
	}
	if ok {
		t.Errorf("primary only: availability %v must miss %v", got, req.Reliability)
	}

	// Primary down: the pooled backup path with rcA = 0.
	alive = []core.Assignment{{Cloudlet: 1, Instances: 1}}
	got, _ = MeetsPlacement(n, req, p, alive)
	if want = oracle.Availability(rf, nil, pool); math.Abs(got-want) > 1e-12 {
		t.Errorf("backup only: availability = %v, want %v", got, want)
	}

	// Neither member of the placement survives.
	if got, ok = MeetsPlacement(n, req, p, nil); got != 0 || ok {
		t.Errorf("neither alive: got (%v, %v), want (0, false)", got, ok)
	}
}

func TestMeetsPlacementDelegatesForDedicated(t *testing.T) {
	n := repairNetwork()
	req := core.Request{ID: 3, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2}
	alive := []core.Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 1, Instances: 1}}
	p := core.Placement{
		Request:     3,
		Scheme:      core.OffSite,
		Assignments: alive,
	}
	got, gotOK := MeetsPlacement(n, req, p, alive)
	want, wantOK := Meets(n, req, alive)
	if got != want || gotOK != wantOK {
		t.Errorf("dedicated placement: got (%v, %v), want Meets result (%v, %v)", got, gotOK, want, wantOK)
	}
}
