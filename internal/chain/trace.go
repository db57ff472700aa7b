package chain

import (
	"errors"
	"fmt"
	"math/rand"

	"revnf/internal/core"
	"revnf/internal/workload"
)

// Errors returned by Instance.Validate and the generator.
var (
	ErrBadInstance = errors.New("chain: invalid instance")
	ErrBadConfig   = errors.New("chain: invalid configuration")
)

// Instance bundles a chain simulation input.
type Instance struct {
	// Network holds the catalog and cloudlets.
	Network *core.Network
	// Horizon is T.
	Horizon int
	// Trace is the chain request stream in arrival order.
	Trace []Request
}

// Validate checks the network and every request.
func (in *Instance) Validate() error {
	if in == nil || in.Network == nil {
		return fmt.Errorf("%w: nil", ErrBadInstance)
	}
	if err := in.Network.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	if in.Horizon < 1 {
		return fmt.Errorf("%w: horizon %d", ErrBadInstance, in.Horizon)
	}
	for i, r := range in.Trace {
		if r.ID != i {
			return fmt.Errorf("%w: request at index %d has ID %d", ErrBadInstance, i, r.ID)
		}
		if err := r.Validate(in.Network, in.Horizon); err != nil {
			return fmt.Errorf("%w: %v", ErrBadInstance, err)
		}
	}
	return nil
}

// TraceConfig controls GenerateTrace for chains.
type TraceConfig struct {
	// Requests is the number of chains.
	Requests int
	// Horizon is T.
	Horizon int
	// MinLength and MaxLength bound the chain length (stage count).
	MinLength, MaxLength int
	// MinDuration and MaxDuration bound durations in slots.
	MinDuration, MaxDuration int
	// MinRequirement and MaxRequirement bound the whole-chain R.
	MinRequirement, MaxRequirement float64
	// MaxPaymentRate and H define uniform payment rates as in the
	// single-VNF generator; payment = rate·d·(chain units at one instance
	// per stage)·R.
	MaxPaymentRate float64
	H              float64
}

// Validate checks the configuration.
func (c TraceConfig) Validate() error {
	if c.Requests < 1 || c.Horizon < 1 {
		return fmt.Errorf("%w: requests %d horizon %d", ErrBadConfig, c.Requests, c.Horizon)
	}
	if c.MinLength < 1 || c.MaxLength < c.MinLength {
		return fmt.Errorf("%w: length range [%d,%d]", ErrBadConfig, c.MinLength, c.MaxLength)
	}
	if c.MinDuration < 1 || c.MaxDuration < c.MinDuration || c.MaxDuration > c.Horizon {
		return fmt.Errorf("%w: duration range [%d,%d]", ErrBadConfig, c.MinDuration, c.MaxDuration)
	}
	if c.MinRequirement <= 0 || c.MaxRequirement >= 1 || c.MaxRequirement < c.MinRequirement {
		return fmt.Errorf("%w: requirement range [%v,%v]", ErrBadConfig, c.MinRequirement, c.MaxRequirement)
	}
	if c.MaxPaymentRate <= 0 || c.H < 1 {
		return fmt.Errorf("%w: pr_max %v H %v", ErrBadConfig, c.MaxPaymentRate, c.H)
	}
	return nil
}

// GenerateTrace draws a chain request trace against the catalog, sorted by
// arrival with IDs equal to positions.
func GenerateTrace(cfg TraceConfig, catalog []core.VNF, rng *rand.Rand) ([]Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("%w: empty catalog", ErrBadConfig)
	}
	out := workload.ByArrival(cfg.draw(catalog, rng), cfg.Horizon, func(r *Request) int { return r.Arrival })
	for i := range out {
		out[i].ID = i
	}
	return out, nil
}

// draw draws cfg.Requests chains in draw order, each with its draw index as
// ID; GenerateTrace orders them by arrival.
func (c TraceConfig) draw(catalog []core.VNF, rng *rand.Rand) []Request {
	prMin := c.MaxPaymentRate / c.H
	out := make([]Request, c.Requests)
	for i := range out {
		length := c.MinLength + rng.Intn(c.MaxLength-c.MinLength+1)
		vnfs := make([]int, length)
		baseUnits := 0
		for k := range vnfs {
			vnfs[k] = rng.Intn(len(catalog))
			baseUnits += catalog[vnfs[k]].Demand
		}
		dur := c.MinDuration + rng.Intn(c.MaxDuration-c.MinDuration+1)
		arr := 1 + rng.Intn(c.Horizon-dur+1)
		req := c.MinRequirement + (c.MaxRequirement-c.MinRequirement)*rng.Float64()
		rate := prMin + (c.MaxPaymentRate-prMin)*rng.Float64()
		out[i] = Request{
			ID:          i,
			VNFs:        vnfs,
			Reliability: req,
			Arrival:     arr,
			Duration:    dur,
			Payment:     rate * float64(dur) * float64(baseUnits) * req,
		}
	}
	return out
}
