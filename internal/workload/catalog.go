// Package workload generates problem instances: VNF catalogs, cloudlet
// fleets, and online request traces. It stands in for the paper's data
// sources — the VNF parameters of [15] (10 types, reliability 0.9–0.9999,
// demand 1–3 computing units) and the Google cluster trace [19] used to
// randomize request arrivals, durations and payments — with reproducible,
// seeded synthetic equivalents exposing the evaluation's H (payment-rate
// variation) and K (cloudlet-reliability variation) knobs directly.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"revnf/internal/core"
)

// Errors returned by generators.
var (
	ErrBadConfig = errors.New("workload: invalid configuration")
)

// DefaultCatalog returns the paper's evaluation catalog: 10 VNF types with
// reliabilities spread across [0.9, 0.9999] and demands of 1–3 computing
// units (Section VI-A, citing [15]).
func DefaultCatalog() []core.VNF {
	return []core.VNF{
		{ID: 0, Name: "firewall", Demand: 1, Reliability: 0.9000},
		{ID: 1, Name: "nat", Demand: 1, Reliability: 0.9300},
		{ID: 2, Name: "load-balancer", Demand: 2, Reliability: 0.9500},
		{ID: 3, Name: "ids", Demand: 3, Reliability: 0.9700},
		{ID: 4, Name: "proxy", Demand: 1, Reliability: 0.9800},
		{ID: 5, Name: "wan-optimizer", Demand: 2, Reliability: 0.9900},
		{ID: 6, Name: "dpi", Demand: 3, Reliability: 0.9950},
		{ID: 7, Name: "vpn-gateway", Demand: 2, Reliability: 0.9990},
		{ID: 8, Name: "transcoder", Demand: 3, Reliability: 0.9995},
		{ID: 9, Name: "cache", Demand: 1, Reliability: 0.9999},
	}
}

// CloudletConfig controls RandomCloudlets. The reliability spread is
// expressed through the paper's K knob: reliabilities are uniform over
// [MaxReliability/K, MaxReliability].
type CloudletConfig struct {
	// Count is the number of cloudlets.
	Count int
	// MinCapacity and MaxCapacity bound cap_j in computing units.
	MinCapacity, MaxCapacity int
	// MaxReliability is rc_max, in (0,1).
	MaxReliability float64
	// K is the reliability variation rc_max/rc_min, ≥ 1 (Section VI-C).
	K float64
	// Sites optionally binds cloudlets to topology nodes; when non-nil it
	// must have Count entries.
	Sites []int
}

// Validate checks the configuration ranges.
func (c CloudletConfig) Validate() error {
	if c.Count < 1 {
		return fmt.Errorf("%w: %d cloudlets", ErrBadConfig, c.Count)
	}
	if c.MinCapacity < 1 || c.MaxCapacity < c.MinCapacity {
		return fmt.Errorf("%w: capacity range [%d,%d]", ErrBadConfig, c.MinCapacity, c.MaxCapacity)
	}
	if c.MaxReliability <= 0 || c.MaxReliability >= 1 {
		return fmt.Errorf("%w: rc_max %v", ErrBadConfig, c.MaxReliability)
	}
	if c.K < 1 {
		return fmt.Errorf("%w: K=%v below 1", ErrBadConfig, c.K)
	}
	if c.MaxReliability/c.K <= 0 {
		return fmt.Errorf("%w: rc_min %v", ErrBadConfig, c.MaxReliability/c.K)
	}
	if c.Sites != nil && len(c.Sites) != c.Count {
		return fmt.Errorf("%w: %d sites for %d cloudlets", ErrBadConfig, len(c.Sites), c.Count)
	}
	return nil
}

// RandomCloudlets generates a cloudlet fleet with uniform capacities in
// [MinCapacity, MaxCapacity] and reliabilities uniform in
// [MaxReliability/K, MaxReliability].
func RandomCloudlets(cfg CloudletConfig, rng *rand.Rand) ([]core.Cloudlet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rcMin := cfg.MaxReliability / cfg.K
	out := make([]core.Cloudlet, cfg.Count)
	for j := range out {
		node := -1
		if cfg.Sites != nil {
			node = cfg.Sites[j]
		}
		out[j] = core.Cloudlet{
			ID:          j,
			Node:        node,
			Capacity:    cfg.MinCapacity + rng.Intn(cfg.MaxCapacity-cfg.MinCapacity+1),
			Reliability: uniform(rng, rcMin, cfg.MaxReliability),
		}
	}
	return out, nil
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}
