package workload

import (
	"errors"
	"math/rand"
	"testing"

	"revnf/internal/core"
)

func TestDefaultCatalog(t *testing.T) {
	cat := DefaultCatalog()
	if len(cat) != 10 {
		t.Fatalf("DefaultCatalog size = %d, want 10", len(cat))
	}
	n := &core.Network{Catalog: cat, Cloudlets: []core.Cloudlet{{ID: 0, Capacity: 1, Reliability: 0.5}}}
	if err := n.Validate(); err != nil {
		t.Fatalf("DefaultCatalog fails validation: %v", err)
	}
	for _, f := range cat {
		if f.Reliability < 0.9 || f.Reliability > 0.9999 {
			t.Errorf("VNF %s reliability %v outside [0.9, 0.9999]", f.Name, f.Reliability)
		}
		if f.Demand < 1 || f.Demand > 3 {
			t.Errorf("VNF %s demand %d outside [1,3]", f.Name, f.Demand)
		}
	}
}

func TestRandomCloudlets(t *testing.T) {
	cfg := CloudletConfig{Count: 10, MinCapacity: 50, MaxCapacity: 100, MaxReliability: 0.999, K: 1.05}
	cls, err := RandomCloudlets(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("RandomCloudlets: %v", err)
	}
	rcMin := 0.999 / 1.05
	for j, c := range cls {
		if c.ID != j {
			t.Errorf("cloudlet %d has ID %d", j, c.ID)
		}
		if c.Node != -1 {
			t.Errorf("unbound cloudlet has node %d", c.Node)
		}
		if c.Capacity < 50 || c.Capacity > 100 {
			t.Errorf("capacity %d out of range", c.Capacity)
		}
		if c.Reliability < rcMin || c.Reliability > 0.999 {
			t.Errorf("reliability %v outside [%v, 0.999]", c.Reliability, rcMin)
		}
	}
}

func TestRandomCloudletsWithSites(t *testing.T) {
	cfg := CloudletConfig{
		Count: 3, MinCapacity: 10, MaxCapacity: 10,
		MaxReliability: 0.99, K: 1, Sites: []int{4, 7, 9},
	}
	cls, err := RandomCloudlets(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("RandomCloudlets: %v", err)
	}
	for j, want := range []int{4, 7, 9} {
		if cls[j].Node != want {
			t.Errorf("cloudlet %d node = %d, want %d", j, cls[j].Node, want)
		}
	}
	// K=1 forces identical reliabilities.
	for _, c := range cls {
		if c.Reliability != 0.99 {
			t.Errorf("K=1 reliability = %v, want 0.99", c.Reliability)
		}
	}
}

func TestCloudletConfigValidate(t *testing.T) {
	good := CloudletConfig{Count: 2, MinCapacity: 1, MaxCapacity: 2, MaxReliability: 0.99, K: 1.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*CloudletConfig)
	}{
		{"zero count", func(c *CloudletConfig) { c.Count = 0 }},
		{"zero capacity", func(c *CloudletConfig) { c.MinCapacity = 0 }},
		{"inverted capacity", func(c *CloudletConfig) { c.MaxCapacity = 0 }},
		{"rc_max 1", func(c *CloudletConfig) { c.MaxReliability = 1 }},
		{"K below 1", func(c *CloudletConfig) { c.K = 0.5 }},
		{"wrong site count", func(c *CloudletConfig) { c.Sites = []int{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Validate() = %v, want ErrBadConfig", err)
			}
		})
	}
}
