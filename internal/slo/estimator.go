package slo

import "revnf/internal/core"

// RateEstimator learns per-cloudlet availability r(c_j) online from
// observed slot states, as a Beta posterior per cloudlet: up slots
// increment alpha, down slots increment beta, and the estimate is the
// posterior mean alpha/(alpha+beta). With a Beta(1,1) (uniform) prior
// this is Laplace's rule of succession; NewCatalogEstimator instead
// centers the prior on the catalog rates so early estimates degrade
// gracefully toward what the operator declared.
//
// The estimator implements core.ReliabilitySource, so the repair health
// checks (and rebuilt schedulers, via
// core.Network.WithReliabilities) can run on learned rates instead of
// catalog values. It has no lock: its holder serializes every call,
// reads included.
type RateEstimator struct {
	alpha []float64
	beta  []float64
}

// NewRateEstimator builds an estimator for n cloudlets with uniform
// Beta(1,1) priors.
func NewRateEstimator(n int) *RateEstimator {
	if n < 0 {
		n = 0
	}
	e := &RateEstimator{alpha: make([]float64, n), beta: make([]float64, n)}
	for j := range e.alpha {
		e.alpha[j], e.beta[j] = 1, 1
	}
	return e
}

// NewCatalogEstimator builds an estimator whose priors are centered on
// the network's catalog rates with the given strength (pseudo-slot
// count, clamped below at 1): cloudlet j starts at
// Beta(r_j·strength, (1-r_j)·strength), so the prior mean is exactly the
// catalog rate and `strength` observed slots weigh as much as the prior.
func NewCatalogEstimator(network *core.Network, strength float64) *RateEstimator {
	if strength < 1 {
		strength = 1
	}
	e := &RateEstimator{
		alpha: make([]float64, len(network.Cloudlets)),
		beta:  make([]float64, len(network.Cloudlets)),
	}
	for j, cl := range network.Cloudlets {
		e.alpha[j] = cl.Reliability * strength
		e.beta[j] = (1 - cl.Reliability) * strength
	}
	return e
}

// Observe records one slot's state for cloudlet j.
func (e *RateEstimator) Observe(j int, up bool) {
	if j < 0 || j >= len(e.alpha) {
		return
	}
	if up {
		e.alpha[j]++
	} else {
		e.beta[j]++
	}
}

// CloudletReliability implements core.ReliabilitySource: the posterior
// mean for cloudlet j, or 0 out of range.
func (e *RateEstimator) CloudletReliability(j int) float64 {
	if j < 0 || j >= len(e.alpha) {
		return 0
	}
	return e.alpha[j] / (e.alpha[j] + e.beta[j])
}

// Cloudlets returns the number of tracked cloudlets.
func (e *RateEstimator) Cloudlets() int {
	return len(e.alpha)
}

// Observations returns how many slots have been observed for cloudlet j
// (excluding prior pseudo-counts is not possible once folded in, so this
// counts alpha+beta; use it for relative maturity only).
func (e *RateEstimator) Observations(j int) float64 {
	if j < 0 || j >= len(e.alpha) {
		return 0
	}
	return e.alpha[j] + e.beta[j]
}

var _ core.ReliabilitySource = (*RateEstimator)(nil)
