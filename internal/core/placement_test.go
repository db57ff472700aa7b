package core

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestAssignmentUnits(t *testing.T) {
	a := Assignment{Cloudlet: 0, Instances: 3}
	if got := a.Units(2); got != 6 {
		t.Fatalf("Units(2) = %d, want 6", got)
	}
}

func TestPlacementTotalInstances(t *testing.T) {
	p := Placement{Assignments: []Assignment{{0, 2}, {1, 1}, {2, 3}}}
	if got := p.TotalInstances(); got != 6 {
		t.Fatalf("TotalInstances() = %d, want 6", got)
	}
}

func TestPlacementValidateOnsite(t *testing.T) {
	n := testNetwork()
	// VNF 0 (rf=0.95) in cloudlet 2 (rc=0.999): two instances give
	// 0.999*(1-0.05^2) = 0.9965; requirement 0.99 is met.
	req := Request{ID: 4, VNF: 0, Reliability: 0.99, Arrival: 1, Duration: 2, Payment: 1}
	p := Placement{Request: 4, Scheme: OnSite, Assignments: []Assignment{{Cloudlet: 2, Instances: 2}}}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	if got, want := p.Availability(n, req), 0.999*(1-0.05*0.05); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Availability() = %v, want %v", got, want)
	}
}

func TestPlacementValidateOffsite(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 7, VNF: 1, Reliability: 0.999, Arrival: 1, Duration: 1, Payment: 1}
	p := Placement{Request: 7, Scheme: OffSite, Assignments: []Assignment{
		{Cloudlet: 0, Instances: 1},
		{Cloudlet: 2, Instances: 1},
	}}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	rf := n.Catalog[1].Reliability
	want := 1 - (1-rf*0.99)*(1-rf*0.999)
	if got := p.Availability(n, req); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Availability() = %v, want %v", got, want)
	}
}

func TestPlacementValidateErrors(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 1, VNF: 0, Reliability: 0.99, Arrival: 1, Duration: 1, Payment: 1}
	good := func() Placement {
		return Placement{Request: 1, Scheme: OnSite, Assignments: []Assignment{{Cloudlet: 2, Instances: 2}}}
	}
	tests := []struct {
		name    string
		mutate  func(*Placement)
		wantErr error
	}{
		{"wrong request", func(p *Placement) { p.Request = 9 }, ErrBadPlacement},
		{"invalid scheme", func(p *Placement) { p.Scheme = 0 }, ErrBadPlacement},
		{"no assignments", func(p *Placement) { p.Assignments = nil }, ErrBadPlacement},
		{"unknown cloudlet", func(p *Placement) { p.Assignments[0].Cloudlet = 99 }, ErrBadPlacement},
		{"zero instances", func(p *Placement) { p.Assignments[0].Instances = 0 }, ErrBadPlacement},
		{
			"on-site spanning two cloudlets",
			func(p *Placement) {
				p.Assignments = append(p.Assignments, Assignment{Cloudlet: 0, Instances: 1})
			},
			ErrBadPlacement,
		},
		{
			"duplicate cloudlet",
			func(p *Placement) {
				p.Scheme = OffSite
				p.Assignments = []Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 0, Instances: 1}}
			},
			ErrBadPlacement,
		},
		{
			"below requirement",
			func(p *Placement) { p.Assignments[0].Instances = 1 }, // 0.999*0.95 = 0.949 < 0.99
			ErrBelowRequirement,
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
	req := Request{ID: 2, VNF: 0, Reliability: 0.5, Arrival: 1, Duration: 1, Payment: 1}
	p := Placement{Request: 2, Scheme: OffSite, Assignments: []Assignment{{Cloudlet: 0, Instances: 2}}}
	if err := p.Validate(n, req); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("off-site with 2 instances in one cloudlet: err = %v, want ErrBadPlacement", err)
	}
}

func TestPlacementAvailabilityDegenerate(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 0, VNF: 0, Reliability: 0.5, Arrival: 1, Duration: 1}
	bad := Placement{Request: 0, Scheme: Scheme(9)}
	if got := bad.Availability(n, req); got != 0 {
		t.Errorf("unknown scheme availability = %v, want 0", got)
	}
	multi := Placement{Request: 0, Scheme: OnSite, Assignments: []Assignment{{0, 1}, {1, 1}}}
	if got := multi.Availability(n, req); got != 0 {
		t.Errorf("malformed on-site availability = %v, want 0", got)
	}
}

func TestPlacementValidateShared(t *testing.T) {
	n := testNetwork()
	// VNF 0 (rf=0.95), primary in cloudlet 2 (rc=0.999), pooled backup in
	// cloudlet 0 (rc=0.99) at k=2 with peers at the network floor
	// 0.95·0.95: availability ≈ 0.9946 clears a 0.99 requirement.
	req := Request{ID: 9, VNF: 0, Reliability: 0.99, Arrival: 1, Duration: 2, Payment: 1}
	p := Placement{Request: 9, Scheme: Shared,
		Assignments: []Assignment{{Cloudlet: 2, Instances: 1}},
		Backup:      &SharedBackup{Group: 1, Cloudlet: 0, PoolSize: 2}}
	if err := p.Validate(n, req); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	rf := n.Catalog[0].Reliability
	want := SharedReliabilityK(rf, 0.999, 0.99, SharedContentionFloor(rf, n.Cloudlets), 2)
	if got := p.Availability(n, req); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Availability() = %v, want %v", got, want)
	}
}

func TestPlacementValidateSharedErrors(t *testing.T) {
	n := testNetwork()
	req := Request{ID: 9, VNF: 0, Reliability: 0.99, Arrival: 1, Duration: 2, Payment: 1}
	good := func() Placement {
		return Placement{Request: 9, Scheme: Shared,
			Assignments: []Assignment{{Cloudlet: 2, Instances: 1}},
			Backup:      &SharedBackup{Group: 1, Cloudlet: 0, PoolSize: 2}}
	}
	tests := []struct {
		name   string
		mutate func(*Placement)
		want   error
	}{
		{"missing backup", func(p *Placement) { p.Backup = nil }, ErrBadPlacement},
		{"co-located backup", func(p *Placement) { p.Backup.Cloudlet = 2 }, ErrBadPlacement},
		{"unknown backup cloudlet", func(p *Placement) { p.Backup.Cloudlet = 9 }, ErrBadPlacement},
		{"bad group", func(p *Placement) { p.Backup.Group = 0 }, ErrBadPlacement},
		{"bad pool size", func(p *Placement) { p.Backup.PoolSize = 0 }, ErrBadPlacement},
		{"multi-instance primary", func(p *Placement) { p.Assignments[0].Instances = 2 }, ErrBadPlacement},
		{"two primaries", func(p *Placement) {
			p.Assignments = append(p.Assignments, Assignment{Cloudlet: 1, Instances: 1})
		}, ErrBadPlacement},
		{"backup on dedicated scheme", func(p *Placement) { p.Scheme = OnSite; p.Assignments[0].Instances = 2 }, ErrBadPlacement},
		{"below requirement", func(p *Placement) { p.Backup.PoolSize = 16 }, ErrBelowRequirement},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := good()
			tc.mutate(&p)
			if err := p.Validate(n, req); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestPlacementValidateAllocations pins the admission path's gate: a valid
// placement is checked without a heap allocation, however many cloudlets it
// spans, and the pairwise duplicate scan reports what the set did.
func TestPlacementValidateAllocations(t *testing.T) {
	n := &Network{Catalog: []VNF{{ID: 0, Name: "f", Demand: 1, Reliability: 0.9}}}
	for j := 0; j < 40; j++ {
		n.Cloudlets = append(n.Cloudlets, Cloudlet{ID: j, Node: j, Capacity: 10, Reliability: 0.99})
	}
	req := Request{ID: 1, VNF: 0, Reliability: 0.95, Arrival: 1, Duration: 1, Payment: 1}
	spread := func(k int) Placement {
		p := Placement{Request: 1, Scheme: OffSite}
		for j := 0; j < k; j++ {
			p.Assignments = append(p.Assignments, Assignment{Cloudlet: j, Instances: 1})
		}
		return p
	}
	for _, p := range []Placement{
		{Request: 1, Scheme: OnSite, Assignments: []Assignment{{Cloudlet: 0, Instances: 2}}},
		spread(4),
		spread(33),
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = p.Validate(n, req) })
		if err != nil || allocs != 0 {
			t.Errorf("%d assignments: Validate() = %v with %v allocations, want nil with 0", len(p.Assignments), err, allocs)
		}
	}
	p := spread(33)
	p.Assignments[32].Cloudlet = 7
	if err := p.Validate(n, req); !errors.Is(err, ErrBadPlacement) || !strings.Contains(err.Error(), "cloudlet 7 assigned twice") {
		t.Errorf("duplicate in the last of 33: Validate() = %v", err)
	}
	// Errors keep their order: an earlier assignment's fault is reported
	// before a later duplicate.
	p.Assignments[5].Instances = 0
	if err := p.Validate(n, req); err == nil || !strings.Contains(err.Error(), "0 instances in cloudlet 5") {
		t.Errorf("bad instances before a duplicate: Validate() = %v", err)
	}
}
