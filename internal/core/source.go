package core

// ReliabilitySource supplies the per-cloudlet availability r(c_j) that
// the reliability math runs on. The paper treats r(c_j) as a static
// catalog value; this seam lets consumers swap in learned rates — the
// slo package's Beta-posterior estimator implements it from observed
// slot failures — so the repair controller's health checks and rebuilt
// schedulers can price against observed failure behavior instead of
// trusting the catalog.
//
// Implementations must be safe for concurrent reads and must return a
// value in the open interval (0,1) for known cloudlets and 0 for
// out-of-range indices.
type ReliabilitySource interface {
	// CloudletReliability returns r(c_j) for cloudlet j.
	CloudletReliability(cloudlet int) float64
}

// WithReliabilities returns a copy of the network whose cloudlet
// reliabilities come from src; catalog values are kept wherever src
// returns a value outside the open interval (0,1). A scheduler rebuilt
// from the copy, or a health check handed it, consumes the source's rates
// in place of catalog values — the seam's path into the admission math,
// which keys every ladder, dual price and Availability off Network.Cloudlets.
func (n *Network) WithReliabilities(src ReliabilitySource) *Network {
	clone := &Network{
		Catalog:   append([]VNF(nil), n.Catalog...),
		Cloudlets: append([]Cloudlet(nil), n.Cloudlets...),
	}
	if src == nil {
		return clone
	}
	for j := range clone.Cloudlets {
		if r := src.CloudletReliability(j); r > 0 && r < 1 {
			clone.Cloudlets[j].Reliability = r
		}
	}
	return clone
}
