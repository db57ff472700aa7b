package core

import (
	"math/rand"
	"testing"
)

// BenchmarkPlacementValidate times the admit path's gate — the engine
// validates every proposal before reserving it — on one placement per
// scheme over an 8-cloudlet, 10-VNF network. The file uses only what
// Placement has always exported, so copied into a checkout of another
// commit it measures that commit's Validate.
func BenchmarkPlacementValidate(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	n := &Network{}
	for f := 0; f < 10; f++ {
		n.Catalog = append(n.Catalog, VNF{ID: f, Name: "f", Demand: 1 + f%3, Reliability: 0.9 + 0.09*rng.Float64()})
	}
	for j := 0; j < 8; j++ {
		n.Cloudlets = append(n.Cloudlets, Cloudlet{ID: j, Node: j, Capacity: 100, Reliability: 0.95 + 0.049*rng.Float64()})
	}
	req := Request{ID: 1, VNF: 3, Reliability: 0.93, Arrival: 1, Duration: 2, Payment: 10}
	for _, bc := range []struct {
		name string
		p    Placement
	}{
		{"onsite-2", Placement{Request: 1, Scheme: OnSite, Assignments: []Assignment{{Cloudlet: 5, Instances: 2}}}},
		{"offsite-2", Placement{Request: 1, Scheme: OffSite, Assignments: []Assignment{{Cloudlet: 2, Instances: 1}, {Cloudlet: 6, Instances: 1}}}},
		{"shared-k4", Placement{Request: 1, Scheme: Shared, Assignments: []Assignment{{Cloudlet: 4, Instances: 1}},
			Backup: &SharedBackup{Group: 1, Cloudlet: 7, PoolSize: 4}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.p.Validate(n, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
