package chain

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"revnf/internal/core"
)

func testNetwork() *core.Network {
	return &core.Network{
		Catalog: []core.VNF{
			{ID: 0, Name: "fw", Demand: 1, Reliability: 0.95},
			{ID: 1, Name: "dpi", Demand: 2, Reliability: 0.9},
			{ID: 2, Name: "enc", Demand: 1, Reliability: 0.98},
		},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: 0, Capacity: 20, Reliability: 0.999},
			{ID: 1, Node: 1, Capacity: 15, Reliability: 0.99},
			{ID: 2, Node: 2, Capacity: 15, Reliability: 0.98},
			{ID: 3, Node: 3, Capacity: 10, Reliability: 0.97},
		},
	}
}

func TestRequestValidate(t *testing.T) {
	n := testNetwork()
	good := Request{ID: 0, VNFs: []int{0, 1}, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 5}
	if err := good.Validate(n, 10); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Request)
	}{
		{"empty chain", func(r *Request) { r.VNFs = nil }},
		{"unknown vnf", func(r *Request) { r.VNFs = []int{9} }},
		{"requirement 1", func(r *Request) { r.Reliability = 1 }},
		{"arrival 0", func(r *Request) { r.Arrival = 0 }},
		{"past horizon", func(r *Request) { r.Duration = 99 }},
		{"negative payment", func(r *Request) { r.Payment = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := good
			tt.mutate(&r)
			if err := r.Validate(n, 10); !errors.Is(err, ErrBadChain) {
				t.Errorf("Validate() = %v, want ErrBadChain", err)
			}
		})
	}
}

func TestOnsiteAllocation(t *testing.T) {
	n := testNetwork()
	alloc, err := OnsiteAllocation(n.Catalog, []int{0, 1, 2}, 0.999, 0.95)
	if err != nil {
		t.Fatalf("OnsiteAllocation: %v", err)
	}
	if len(alloc) != 3 {
		t.Fatalf("allocation length %d", len(alloc))
	}
	// Must meet the target.
	prod := 1.0
	for k, f := range []int{0, 1, 2} {
		rf := n.Catalog[f].Reliability
		prod *= 1 - math.Pow(1-rf, float64(alloc[k]))
	}
	if 0.999*prod+1e-12 < 0.95 {
		t.Errorf("allocation %v gives %v < 0.95", alloc, 0.999*prod)
	}
}

func TestOnsiteAllocationInfeasible(t *testing.T) {
	n := testNetwork()
	if _, err := OnsiteAllocation(n.Catalog, []int{0}, 0.9, 0.95); !errors.Is(err, ErrInfeasible) {
		t.Errorf("rc<req err = %v, want ErrInfeasible", err)
	}
	if _, err := OnsiteAllocation(n.Catalog, nil, 0.99, 0.9); !errors.Is(err, ErrBadChain) {
		t.Errorf("empty chain err = %v, want ErrBadChain", err)
	}
}

// Property: the greedy allocation meets the target and is locally minimal
// (removing one instance from any stage with more than one breaks it).
func TestOnsiteAllocationMinimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	catalog := testNetwork().Catalog
	for trial := 0; trial < 500; trial++ {
		length := 1 + rng.Intn(4)
		vnfs := make([]int, length)
		for k := range vnfs {
			vnfs[k] = rng.Intn(len(catalog))
		}
		rc := 0.97 + 0.029*rng.Float64()
		req := rc * (0.8 + 0.19*rng.Float64())
		alloc, err := OnsiteAllocation(catalog, vnfs, rc, req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		avail := func(a Allocation) float64 {
			prod := 1.0
			for k, f := range vnfs {
				prod *= 1 - math.Pow(1-catalog[f].Reliability, float64(a[k]))
			}
			return rc * prod
		}
		if avail(alloc)+1e-12 < req {
			t.Fatalf("trial %d: allocation %v misses target", trial, alloc)
		}
		for k := range alloc {
			if alloc[k] <= 1 {
				continue
			}
			reduced := append(Allocation(nil), alloc...)
			reduced[k]--
			if avail(reduced) >= req+1e-9 {
				t.Fatalf("trial %d: allocation %v not minimal at stage %d", trial, alloc, k)
			}
		}
	}
}

func TestOffsiteStageTargets(t *testing.T) {
	targets, err := OffsiteStageTargets(0.9, 3)
	if err != nil {
		t.Fatalf("OffsiteStageTargets: %v", err)
	}
	prod := 1.0
	for _, x := range targets {
		prod *= x
	}
	if math.Abs(prod-0.9) > 1e-12 {
		t.Errorf("targets %v multiply to %v, want 0.9", targets, prod)
	}
	if _, err := OffsiteStageTargets(0.9, 0); !errors.Is(err, ErrBadChain) {
		t.Errorf("zero stages err = %v", err)
	}
	if _, err := OffsiteStageTargets(1.5, 2); !errors.Is(err, ErrBadChain) {
		t.Errorf("bad requirement err = %v", err)
	}
}

func TestPlacementAvailabilityOnsite(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 0, VNFs: []int{0, 1}, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 1}
	p := Placement{
		Request: 0,
		Scheme:  core.OnSite,
		Stages: []StagePlacement{
			{VNF: 0, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 2}}},
			{VNF: 1, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 2}}},
		},
	}
	want := 0.999 * (1 - 0.05*0.05) * (1 - 0.1*0.1)
	if got := p.Availability(n, req); math.Abs(got-want) > 1e-12 {
		t.Errorf("Availability = %v, want %v", got, want)
	}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPlacementAvailabilityOffsiteDisjoint(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 0, VNFs: []int{0, 2}, Reliability: 0.85, Arrival: 1, Duration: 1, Payment: 1}
	p := Placement{
		Request: 0,
		Scheme:  core.OffSite,
		Stages: []StagePlacement{
			{VNF: 0, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 1, Instances: 1}}},
			{VNF: 2, Assignments: []core.Assignment{{Cloudlet: 2, Instances: 1}, {Cloudlet: 3, Instances: 1}}},
		},
	}
	// Disjoint stages: product of stage availabilities.
	stage0 := 1 - (1-0.999*0.95)*(1-0.99*0.95)
	stage1 := 1 - (1-0.98*0.98)*(1-0.97*0.98)
	want := stage0 * stage1
	if got := p.Availability(n, req); math.Abs(got-want) > 1e-12 {
		t.Errorf("Availability = %v, want %v", got, want)
	}
}

// Exact enumeration must handle the correlation when stages share a
// cloudlet. Stage-up events are increasing in the independent component
// states, so they are positively associated (FKG): the exact value is at
// least the naive independent product, with the shared cloudlet's rc
// factor paid once instead of once per stage.
func TestPlacementAvailabilityOffsiteShared(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 0, VNFs: []int{0, 2}, Reliability: 0.5, Arrival: 1, Duration: 1, Payment: 1}
	shared := Placement{
		Request: 0,
		Scheme:  core.OffSite,
		Stages: []StagePlacement{
			{VNF: 0, Assignments: []core.Assignment{{Cloudlet: 1, Instances: 1}}},
			{VNF: 2, Assignments: []core.Assignment{{Cloudlet: 1, Instances: 1}}},
		},
	}
	got := shared.Availability(n, req)
	// Exact: both stages live in cloudlet 1 → rc·rf0·rf2.
	want := 0.99 * 0.95 * 0.98
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("shared availability = %v, want exact %v", got, want)
	}
	naive := (0.99 * 0.95) * (0.99 * 0.98)
	if got < naive {
		t.Errorf("exact %v below naive independent product %v; positive association violated", got, naive)
	}
}

// Property: exact enumeration agrees with Monte-Carlo sampling on random
// overlapping placements.
func TestExactAvailabilityMatchesMonteCarlo(t *testing.T) {
	n := testNetwork()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		stages := make([]StagePlacement, 2)
		for k := range stages {
			vnf := rng.Intn(len(n.Catalog))
			cls := rng.Perm(len(n.Cloudlets))[:1+rng.Intn(3)]
			var as []core.Assignment
			for _, c := range cls {
				as = append(as, core.Assignment{Cloudlet: c, Instances: 1})
			}
			stages[k] = StagePlacement{VNF: vnf, Assignments: as}
		}
		p := Placement{Request: 0, Scheme: core.OffSite, Stages: stages}
		req := Request{ID: 0, VNFs: []int{stages[0].VNF, stages[1].VNF}, Reliability: 0.01, Arrival: 1, Duration: 1, Payment: 1}
		exact := p.Availability(n, req)
		// Monte Carlo.
		const trials = 200000
		up := 0
		for s := 0; s < trials; s++ {
			clUp := make([]bool, len(n.Cloudlets))
			for j := range clUp {
				clUp[j] = rng.Float64() < n.Cloudlets[j].Reliability
			}
			chainUp := true
			for _, st := range p.Stages {
				rf := n.Catalog[st.VNF].Reliability
				alive := false
				for _, a := range st.Assignments {
					if clUp[a.Cloudlet] && rng.Float64() < rf {
						alive = true
						break
					}
				}
				if !alive {
					chainUp = false
					break
				}
			}
			if chainUp {
				up++
			}
		}
		mc := float64(up) / trials
		if math.Abs(exact-mc) > 0.005 {
			t.Errorf("trial %d: exact %v vs Monte-Carlo %v", trial, exact, mc)
		}
	}
}

func TestPlacementValidateErrors(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 1, VNFs: []int{0, 1}, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 1}
	good := func() Placement {
		return Placement{
			Request: 1,
			Scheme:  core.OnSite,
			Stages: []StagePlacement{
				{VNF: 0, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 2}}},
				{VNF: 1, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 2}}},
			},
		}
	}
	if err := good().Validate(n, req); err != nil {
		t.Fatalf("good placement rejected: %v", err)
	}
	tests := []struct {
		name    string
		mutate  func(*Placement)
		wantErr error
	}{
		{"wrong request", func(p *Placement) { p.Request = 9 }, ErrBadPlacement},
		{"missing stage", func(p *Placement) { p.Stages = p.Stages[:1] }, ErrBadPlacement},
		{"wrong vnf", func(p *Placement) { p.Stages[0].VNF = 2 }, ErrBadPlacement},
		{"unplaced stage", func(p *Placement) { p.Stages[1].Assignments = nil }, ErrBadPlacement},
		{"unknown cloudlet", func(p *Placement) { p.Stages[0].Assignments[0].Cloudlet = 99 }, ErrBadPlacement},
		{"zero instances", func(p *Placement) { p.Stages[0].Assignments[0].Instances = 0 }, ErrBadPlacement},
		{
			"on-site spanning cloudlets",
			func(p *Placement) { p.Stages[1].Assignments[0].Cloudlet = 1 },
			ErrBadPlacement,
		},
		{
			"bad scheme",
			func(p *Placement) { p.Scheme = core.Scheme(9) },
			ErrBadPlacement,
		},
		{
			"below requirement",
			func(p *Placement) {
				p.Stages[0].Assignments[0].Instances = 1
				p.Stages[1].Assignments[0].Instances = 1
			},
			core.ErrBelowRequirement,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := good()
			tt.mutate(&p)
			if err := p.Validate(n, req); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestPlacementValidateOffsiteMultiInstance(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 0, VNFs: []int{0}, Reliability: 0.5, Arrival: 1, Duration: 1, Payment: 1}
	p := Placement{
		Request: 0,
		Scheme:  core.OffSite,
		Stages: []StagePlacement{
			{VNF: 0, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 2}}},
		},
	}
	if err := p.Validate(n, req); !errors.Is(err, ErrBadPlacement) {
		t.Errorf("off-site multi-instance err = %v, want ErrBadPlacement", err)
	}
}

func TestUnitsPerCloudlet(t *testing.T) {
	n := testNetwork()
	p := Placement{
		Request: 0,
		Scheme:  core.OffSite,
		Stages: []StagePlacement{
			{VNF: 0, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 1, Instances: 1}}},
			{VNF: 1, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}}},
		},
	}
	units := map[int]int{}
	for _, c := range p.Footprint(nil, n.Catalog) {
		units[c.Cloudlet] += c.Units
	}
	if units[0] != 3 || units[1] != 1 { // cloudlet 0: fw(1)+dpi(2), cloudlet 1: fw(1)
		t.Errorf("Footprint per cloudlet = %v", units)
	}
}
