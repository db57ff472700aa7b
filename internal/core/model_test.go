package core

import (
	"errors"
	"slices"
	"testing"
)

func testNetwork() *Network {
	return &Network{
		Catalog: []VNF{
			{ID: 0, Name: "firewall", Demand: 1, Reliability: 0.95},
			{ID: 1, Name: "ids", Demand: 2, Reliability: 0.99},
			{ID: 2, Name: "lb", Demand: 3, Reliability: 0.9},
		},
		Cloudlets: []Cloudlet{
			{ID: 0, Node: 0, Capacity: 10, Reliability: 0.99},
			{ID: 1, Node: 3, Capacity: 20, Reliability: 0.95},
			{ID: 2, Node: 5, Capacity: 15, Reliability: 0.999},
		},
	}
}

func TestSchemeString(t *testing.T) {
	tests := []struct {
		scheme Scheme
		want   string
	}{
		{OnSite, "on-site"},
		{OffSite, "off-site"},
		{Scheme(0), "Scheme(0)"},
		{Scheme(7), "Scheme(7)"},
	}
	for _, tt := range tests {
		if got := tt.scheme.String(); got != tt.want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(tt.scheme), got, tt.want)
		}
	}
}

func TestSchemeValid(t *testing.T) {
	if !OnSite.Valid() || !OffSite.Valid() || !Shared.Valid() {
		t.Error("defined schemes must be valid")
	}
	if Scheme(0).Valid() || Scheme(4).Valid() {
		t.Error("undefined schemes must be invalid")
	}
}

func TestRequestWindow(t *testing.T) {
	r := Request{ID: 0, Arrival: 3, Duration: 4}
	if got := r.End(); got != 6 {
		t.Fatalf("End() = %d, want 6", got)
	}
}

func TestNetworkValidateOK(t *testing.T) {
	n := testNetwork()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestNetworkValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Network)
		wantErr error
	}{
		{"empty catalog", func(n *Network) { n.Catalog = nil }, ErrEmptyCatalog},
		{"no cloudlets", func(n *Network) { n.Cloudlets = nil }, ErrNoCloudlets},
		{"vnf id mismatch", func(n *Network) { n.Catalog[1].ID = 5 }, ErrBadID},
		{"vnf zero demand", func(n *Network) { n.Catalog[0].Demand = 0 }, ErrBadDemand},
		{"vnf reliability 0", func(n *Network) { n.Catalog[0].Reliability = 0 }, ErrBadReliability},
		{"vnf reliability 1", func(n *Network) { n.Catalog[0].Reliability = 1 }, ErrBadReliability},
		{"cloudlet id mismatch", func(n *Network) { n.Cloudlets[2].ID = 0 }, ErrBadID},
		{"cloudlet zero capacity", func(n *Network) { n.Cloudlets[1].Capacity = 0 }, ErrBadCapacity},
		{"cloudlet reliability > 1", func(n *Network) { n.Cloudlets[1].Reliability = 1.5 }, ErrBadReliability},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := testNetwork()
			tt.mutate(n)
			if err := n.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestValidateRequest(t *testing.T) {
	n := testNetwork()
	const horizon = 10
	valid := Request{ID: 0, VNF: 1, Reliability: 0.9, Arrival: 2, Duration: 3, Payment: 5}
	if err := n.ValidateRequest(valid, horizon); err != nil {
		t.Fatalf("ValidateRequest(valid) = %v", err)
	}
	tests := []struct {
		name    string
		mutate  func(*Request)
		wantErr error
	}{
		{"unknown vnf", func(r *Request) { r.VNF = 3 }, ErrUnknownVNF},
		{"negative vnf", func(r *Request) { r.VNF = -1 }, ErrUnknownVNF},
		{"requirement 0", func(r *Request) { r.Reliability = 0 }, ErrBadReliability},
		{"requirement 1", func(r *Request) { r.Reliability = 1 }, ErrBadReliability},
		{"arrival 0", func(r *Request) { r.Arrival = 0 }, ErrBadWindow},
		{"zero duration", func(r *Request) { r.Duration = 0 }, ErrBadWindow},
		{"past horizon", func(r *Request) { r.Duration = 10 }, ErrBadWindow},
		{"negative payment", func(r *Request) { r.Payment = -1 }, ErrBadPayment},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := valid
			tt.mutate(&r)
			if err := n.ValidateRequest(r, horizon); !errors.Is(err, tt.wantErr) {
				t.Errorf("ValidateRequest() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestValidateTrace(t *testing.T) {
	n := testNetwork()
	trace := []Request{
		{ID: 0, VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 1},
		{ID: 1, VNF: 1, Reliability: 0.9, Arrival: 2, Duration: 2, Payment: 1},
	}
	if err := n.ValidateTrace(trace, 5); err != nil {
		t.Fatalf("ValidateTrace(valid) = %v", err)
	}
	trace[1].ID = 7
	if err := n.ValidateTrace(trace, 5); !errors.Is(err, ErrBadID) {
		t.Fatalf("ValidateTrace(bad ID) = %v, want ErrBadID", err)
	}
	trace[1].ID = 1
	trace[0].Duration = 99
	if err := n.ValidateTrace(trace, 5); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("ValidateTrace(bad window) = %v, want ErrBadWindow", err)
	}
}

func TestByReliability(t *testing.T) {
	n := &Network{Cloudlets: []Cloudlet{
		{ID: 0, Reliability: 0.95}, {ID: 1, Reliability: 0.99}, {ID: 2, Reliability: 0.95}, {ID: 3, Reliability: 0.97},
	}}
	if got, want := n.ByReliability(), []int{1, 3, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("ByReliability() = %v, want %v (ties by ascending ID)", got, want)
	}
}
