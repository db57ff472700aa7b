package core

import "testing"

func sourceTestNetwork() *Network {
	return &Network{
		Catalog: []VNF{{ID: 0, Name: "fw", Demand: 1, Reliability: 0.9}},
		Cloudlets: []Cloudlet{
			{ID: 0, Node: -1, Capacity: 10, Reliability: 0.99},
			{ID: 1, Node: -1, Capacity: 10, Reliability: 0.95},
		},
	}
}

type fixedSource map[int]float64

func (s fixedSource) CloudletReliability(j int) float64 { return s[j] }

func TestWithReliabilities(t *testing.T) {
	n := sourceTestNetwork()
	clone := n.WithReliabilities(fixedSource{0: 0.7, 1: 1.5})
	if clone.Cloudlets[0].Reliability != 0.7 {
		t.Errorf("cloudlet 0 = %v, want learned 0.7", clone.Cloudlets[0].Reliability)
	}
	// Out-of-(0,1) source values keep the catalog rate.
	if clone.Cloudlets[1].Reliability != 0.95 {
		t.Errorf("cloudlet 1 = %v, want catalog 0.95", clone.Cloudlets[1].Reliability)
	}
	// The original is untouched; the copy is deep over both slices.
	if n.Cloudlets[0].Reliability != 0.99 {
		t.Errorf("original mutated: %v", n.Cloudlets[0].Reliability)
	}
	clone.Catalog[0].Reliability = 0.1
	if n.Catalog[0].Reliability != 0.9 {
		t.Error("catalog slice shared between original and clone")
	}
	// The clone remains a valid network a scheduler can be rebuilt from.
	if err := clone.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// A nil source is the identity.
	same := n.WithReliabilities(nil)
	if same.Cloudlets[0].Reliability != 0.99 || same.Cloudlets[1].Reliability != 0.95 {
		t.Errorf("nil source changed rates: %+v", same.Cloudlets)
	}
}
