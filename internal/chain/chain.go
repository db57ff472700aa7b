// Package chain extends the paper's single-VNF model to Service Function
// Chains (SFCs): requests that traverse an ordered sequence of VNFs
// (firewall → DPI → transcoder, …) and require the WHOLE chain to be
// available with probability at least R. Reliable SFC provisioning is the
// setting of several works the paper builds on ([7], [13], [16] in its
// bibliography) and its natural extension: a chain is up only when every
// stage has at least one live instance, so availability multiplies across
// stages and the backup budget must be split between them.
//
// The package provides the chain problem model, the redundancy-allocation
// algorithm that decides how many backups each stage gets (a greedy
// marginal-gain-per-unit rule on the log-availability), chain variants of
// the paper's primal-dual and greedy schedulers for both redundancy
// schemes, and a trace generator. The schedulers implement core.TwoPhase
// for the chain request and placement types — the contract of the
// single-VNF schedulers — and simulate.RunChains, the single-VNF
// simulator's admission loop, audits their capacity and chain
// availability.
package chain

import (
	"errors"
	"fmt"
	"math"

	"revnf/internal/core"
	"revnf/internal/timeslot"
)

// Errors returned by the chain model.
var (
	ErrBadChain     = errors.New("chain: malformed chain request")
	ErrBadPlacement = errors.New("chain: malformed placement")
	ErrInfeasible   = errors.New("chain: reliability requirement unattainable")
)

// Request is one SFC request: an ordered list of VNF types that must all
// be available for the service to function.
type Request struct {
	// ID identifies the request within a trace.
	ID int
	// VNFs lists the catalog IDs of the chain's stages, in order. The
	// order does not affect availability but is kept for routing
	// extensions.
	VNFs []int
	// Reliability is the whole-chain requirement R in (0, 1).
	Reliability float64
	// Arrival is the arrival slot (1-based); Duration the slot count.
	Arrival, Duration int
	// Payment is the revenue if admitted.
	Payment float64
}

// End returns the last slot covered by the request.
func (r Request) End() int { return r.Arrival + r.Duration - 1 }

// Length returns the number of stages.
func (r Request) Length() int { return len(r.VNFs) }

// Validate checks the request against the network and horizon.
func (r Request) Validate(n *core.Network, horizon int) error {
	if len(r.VNFs) == 0 {
		return fmt.Errorf("%w: request %d has no stages", ErrBadChain, r.ID)
	}
	for _, f := range r.VNFs {
		if f < 0 || f >= len(n.Catalog) {
			return fmt.Errorf("%w: request %d references VNF %d of %d", ErrBadChain, r.ID, f, len(n.Catalog))
		}
	}
	if r.Reliability <= 0 || r.Reliability >= 1 {
		return fmt.Errorf("%w: request %d requirement %v", ErrBadChain, r.ID, r.Reliability)
	}
	if r.Arrival < 1 || r.Duration < 1 || r.End() > horizon {
		return fmt.Errorf("%w: request %d window [%d,%d] horizon %d", ErrBadChain, r.ID, r.Arrival, r.End(), horizon)
	}
	if r.Payment < 0 {
		return fmt.Errorf("%w: request %d negative payment", ErrBadChain, r.ID)
	}
	return nil
}

// StagePlacement is the placement of one chain stage: the VNF and its
// per-cloudlet instance counts.
type StagePlacement struct {
	// VNF is the stage's catalog ID.
	VNF int
	// Assignments lists where the stage's instances go. On-site chains
	// put every stage in the same single cloudlet; off-site chains use
	// one instance per cloudlet per stage.
	Assignments []core.Assignment
}

// Placement is a chain admission's full resource footprint.
type Placement struct {
	// Request is the chain request ID.
	Request int
	// Scheme records the redundancy scheme.
	Scheme core.Scheme
	// Stages holds one StagePlacement per chain stage, in chain order.
	Stages []StagePlacement
}

// Footprint appends to buf what the placement asks of the ledger in each
// slot of its window — one claim per stage assignment; claims naming one
// cloudlet twice are booked as their sum — and returns it.
func (p Placement) Footprint(buf []timeslot.Claim, catalog []core.VNF) []timeslot.Claim {
	for _, st := range p.Stages {
		demand := catalog[st.VNF].Demand
		for _, a := range st.Assignments {
			buf = append(buf, timeslot.Claim{Cloudlet: a.Cloudlet, Units: a.Units(demand)})
		}
	}
	return buf
}

// StageAvailability returns the probability that stage st has at least one
// live instance, accounting for cloudlet failures: a stage is one more
// footprint of the admission predicate.
func StageAvailability(n *core.Network, st StagePlacement) float64 {
	return core.Availability(n, st.VNF, st.Assignments)
}

// Availability returns the whole-chain availability of the placement.
// On-site chains share one cloudlet, so the cloudlet survival factor
// appears once; off-site chains multiply independent stage availabilities.
func (p Placement) Availability(n *core.Network, r Request) float64 {
	if len(p.Stages) == 0 {
		return 0
	}
	switch p.Scheme {
	case core.OnSite:
		// All stages in a single cloudlet c: the chain is up when c is up
		// and every stage has a live instance.
		cl := p.Stages[0].Assignments[0].Cloudlet
		rc := n.Cloudlets[cl].Reliability
		prod := 1.0
		for _, st := range p.Stages {
			rf := n.Catalog[st.VNF].Reliability
			k := st.Assignments[0].Instances
			prod *= 1 - math.Pow(1-rf, float64(k))
		}
		return rc * prod
	case core.OffSite:
		if p.stagesShareCloudlets() {
			// Stages sharing a cloudlet are positively correlated through
			// that cloudlet's state (the rc factor should be paid once,
			// not once per stage), so the independent product would be a
			// conservative underestimate. Enumerate cloudlet up/down
			// states exactly instead.
			return p.exactOffsiteAvailability(n)
		}
		prod := 1.0
		for _, st := range p.Stages {
			prod *= StageAvailability(n, st)
		}
		return prod
	default:
		return 0
	}
}

// stagesShareCloudlets reports whether any cloudlet hosts instances of
// more than one stage.
func (p Placement) stagesShareCloudlets() bool {
	seen := make(map[int]bool)
	for _, st := range p.Stages {
		for _, a := range st.Assignments {
			if seen[a.Cloudlet] {
				return true
			}
			seen[a.Cloudlet] = true
		}
	}
	return false
}

// exactOffsiteAvailability computes the chain availability exactly by
// enumerating the up/down states of every involved cloudlet (2^d states
// for d distinct cloudlets), handling the correlation that arises when
// stages share cloudlets. The schedulers in this package produce
// disjoint-stage placements, so this path only serves externally
// constructed placements; d is capped to keep it total.
func (p Placement) exactOffsiteAvailability(n *core.Network) float64 {
	var cloudlets []int
	index := make(map[int]int)
	for _, st := range p.Stages {
		for _, a := range st.Assignments {
			if _, ok := index[a.Cloudlet]; !ok {
				index[a.Cloudlet] = len(cloudlets)
				cloudlets = append(cloudlets, a.Cloudlet)
			}
		}
	}
	const maxExact = 20
	if len(cloudlets) > maxExact {
		// Beyond enumeration range: return the conservative bound of
		// zero correlation benefit (treat fully shared stages as one).
		// In practice placements never involve this many cloudlets.
		return 0
	}
	total := 0.0
	for mask := 0; mask < 1<<len(cloudlets); mask++ {
		prob := 1.0
		for i, cl := range cloudlets {
			rc := n.Cloudlets[cl].Reliability
			if mask&(1<<i) != 0 {
				prob *= rc
			} else {
				prob *= 1 - rc
			}
		}
		if prob == 0 {
			continue
		}
		chainUp := 1.0
		for _, st := range p.Stages {
			rf := n.Catalog[st.VNF].Reliability
			dead := 1.0
			for _, a := range st.Assignments {
				if mask&(1<<index[a.Cloudlet]) == 0 {
					continue // cloudlet down in this state
				}
				dead *= math.Pow(1-rf, float64(a.Instances))
			}
			chainUp *= 1 - dead
		}
		total += prob * chainUp
	}
	return total
}

// Validate checks structure, scheme shape, and that availability meets the
// requirement.
func (p Placement) Validate(n *core.Network, r Request) error {
	if p.Request != r.ID {
		return fmt.Errorf("%w: placement for request %d checked against %d", ErrBadPlacement, p.Request, r.ID)
	}
	if len(p.Stages) != len(r.VNFs) {
		return fmt.Errorf("%w: %d stages for a %d-stage chain", ErrBadPlacement, len(p.Stages), len(r.VNFs))
	}
	for k, st := range p.Stages {
		if st.VNF != r.VNFs[k] {
			return fmt.Errorf("%w: stage %d places VNF %d, chain wants %d", ErrBadPlacement, k, st.VNF, r.VNFs[k])
		}
		if len(st.Assignments) == 0 {
			return fmt.Errorf("%w: stage %d unplaced", ErrBadPlacement, k)
		}
		seen := make(map[int]bool, len(st.Assignments))
		for _, a := range st.Assignments {
			if a.Cloudlet < 0 || a.Cloudlet >= len(n.Cloudlets) {
				return fmt.Errorf("%w: stage %d unknown cloudlet %d", ErrBadPlacement, k, a.Cloudlet)
			}
			if a.Instances < 1 {
				return fmt.Errorf("%w: stage %d %d instances", ErrBadPlacement, k, a.Instances)
			}
			if seen[a.Cloudlet] {
				return fmt.Errorf("%w: stage %d cloudlet %d twice", ErrBadPlacement, k, a.Cloudlet)
			}
			seen[a.Cloudlet] = true
		}
	}
	switch p.Scheme {
	case core.OnSite:
		cl := -1
		for k, st := range p.Stages {
			if len(st.Assignments) != 1 {
				return fmt.Errorf("%w: on-site stage %d spans %d cloudlets", ErrBadPlacement, k, len(st.Assignments))
			}
			if cl == -1 {
				cl = st.Assignments[0].Cloudlet
			} else if st.Assignments[0].Cloudlet != cl {
				return fmt.Errorf("%w: on-site chain spans cloudlets %d and %d", ErrBadPlacement, cl, st.Assignments[0].Cloudlet)
			}
		}
	case core.OffSite:
		for k, st := range p.Stages {
			for _, a := range st.Assignments {
				if a.Instances != 1 {
					return fmt.Errorf("%w: off-site stage %d has %d instances in cloudlet %d", ErrBadPlacement, k, a.Instances, a.Cloudlet)
				}
			}
		}
	default:
		return fmt.Errorf("%w: scheme %d", ErrBadPlacement, int(p.Scheme))
	}
	if got := p.Availability(n, r); !core.MeetsRequirement(got, r.Reliability) {
		return fmt.Errorf("%w: availability %v < %v", core.ErrBelowRequirement, got, r.Reliability)
	}
	return nil
}
