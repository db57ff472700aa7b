package core

import (
	"math"
	"math/rand"
	"testing"

	"revnf/internal/oracle"
)

// eq10 is Eq. (10) as the paper writes it, 1 − Π_j (1 − r(f)·r(c_j)): the
// availability of one instance in each of the cloudlets rcs.
func eq10(rf float64, rcs []float64) float64 {
	fail := 1.0
	for _, rc := range rcs {
		fail *= 1 - rf*rc
	}
	return 1 - fail
}

// oracleNetwork draws a network whose rates are far enough from 0 and 1
// that every enumerated outcome carries weight.
func oracleNetwork(rng *rand.Rand) *Network {
	n := &Network{}
	for f := 0; f < 3; f++ {
		n.Catalog = append(n.Catalog, VNF{ID: f, Name: "f", Demand: 1, Reliability: 0.5 + 0.49*rng.Float64()})
	}
	for j := 0; j < 5; j++ {
		n.Cloudlets = append(n.Cloudlets, Cloudlet{ID: j, Node: j, Capacity: 10, Reliability: 0.5 + 0.499*rng.Float64()})
	}
	return n
}

// TestAvailabilityMatchesOracle holds the predicate to the state
// enumeration on every footprint shape it is asked about: one site
// (on-site), one instance per site (off-site), mixed counts and entries
// without instances (chain stages, survivors of a failure), and nothing at
// all. The two shapes the schedulers propose must also equal their closed
// forms to the bit.
func TestAvailabilityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	shapes := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		n := oracleNetwork(rng)
		vnf := rng.Intn(len(n.Catalog))
		rf := n.Catalog[vnf].Reliability
		var sites []Assignment
		var enumerated []oracle.Site
		var rcs []float64
		single := true
		for _, j := range rng.Perm(len(n.Cloudlets))[:rng.Intn(4)] {
			count := rng.Intn(4) // 0 is a site that lost every instance
			if trial%3 == 0 {
				count = 1
			}
			single = single && count == 1
			sites = append(sites, Assignment{Cloudlet: j, Instances: count})
			enumerated = append(enumerated, oracle.Site{Rc: n.Cloudlets[j].Reliability, N: count})
			rcs = append(rcs, n.Cloudlets[j].Reliability)
		}
		got, want := Availability(n, vnf, sites), oracle.Availability(rf, enumerated, nil)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: Availability(rf=%v, %v) = %v, enumeration says %v", trial, rf, sites, got, want)
		}
		switch {
		case len(sites) == 0:
			shapes["empty"]++
			if got != 0 {
				t.Fatalf("trial %d: empty footprint has availability %v", trial, got)
			}
		case len(sites) == 1:
			shapes["one site"]++
			if closed := OnsiteReliability(rf, rcs[0], sites[0].Instances); got != closed {
				t.Fatalf("trial %d: one site %v = %v, OnsiteReliability %v: not the bits the tables are built from", trial, sites, got, closed)
			}
		case single:
			shapes["one instance per site"]++
			if closed := eq10(rf, rcs); got != closed {
				t.Fatalf("trial %d: %v = %v, Eq. (10) %v: not its bits", trial, sites, got, closed)
			}
		default:
			shapes["mixed"]++
		}
	}
	for _, shape := range []string{"empty", "one site", "one instance per site", "mixed"} {
		if shapes[shape] < 100 {
			t.Errorf("only %d %q footprints drawn", shapes[shape], shape)
		}
	}
}

// TestPlacementAvailabilityMatchesOracle asks the same of the per-scheme
// dispatch, the shared scheme included: the enumeration plays out every
// subset of the k−1 peers losing their active paths at the floor rate and a
// uniform grant among the claimants, where the code multiplies by the
// occupancy identity. Validate must then accept exactly what the
// enumeration says meets the requirement (drawn away from the boundary).
func TestPlacementAvailabilityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		n := oracleNetwork(rng)
		req := Request{ID: trial, VNF: rng.Intn(len(n.Catalog)), Arrival: 1, Duration: 1}
		rf := n.Catalog[req.VNF].Reliability
		order := rng.Perm(len(n.Cloudlets))
		rc := func(i int) float64 { return n.Cloudlets[order[i]].Reliability }
		p := Placement{Request: trial, Scheme: AllSchemes()[trial%3]}
		var want float64
		switch p.Scheme {
		case OnSite:
			p.Assignments = []Assignment{{Cloudlet: order[0], Instances: 1 + rng.Intn(3)}}
			want = oracle.Availability(rf, []oracle.Site{{Rc: rc(0), N: p.Assignments[0].Instances}}, nil)
		case OffSite:
			var enumerated []oracle.Site
			for i, spread := 0, 1+rng.Intn(3); i < spread; i++ {
				p.Assignments = append(p.Assignments, Assignment{Cloudlet: order[i], Instances: 1})
				enumerated = append(enumerated, oracle.Site{Rc: rc(i), N: 1})
			}
			want = oracle.Availability(rf, enumerated, nil)
		case Shared:
			p.Assignments = []Assignment{{Cloudlet: order[0], Instances: 1}}
			p.Backup = &SharedBackup{Group: 1, Cloudlet: order[1], PoolSize: 1 + rng.Intn(5)}
			worst := 1.0
			for _, cl := range n.Cloudlets {
				worst = math.Min(worst, cl.Reliability)
			}
			want = oracle.Availability(rf, []oracle.Site{{Rc: rc(0), N: 1}},
				&oracle.Pool{Rc: rc(1), Peers: oracle.Peers(rf*worst, p.Backup.PoolSize-1)})
		}
		got := p.Availability(n, req)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: %v %v backup %+v: Availability = %v, enumeration says %v", trial, p.Scheme, p.Assignments, p.Backup, got, want)
		}
		if p.Backup == nil && got != Availability(n, req.VNF, p.Assignments) {
			t.Fatalf("trial %d: %v placement and its footprint disagree: %v vs %v", trial, p.Scheme, got, Availability(n, req.VNF, p.Assignments))
		}
		for _, delta := range []float64{-1e-6, 1e-6} {
			req.Reliability = want + delta
			if err := p.Validate(n, req); (err == nil) != (delta < 0) {
				t.Fatalf("trial %d: %v placement with enumerated availability %v against R = %v: Validate() = %v", trial, p.Scheme, want, req.Reliability, err)
			}
		}
	}
}
