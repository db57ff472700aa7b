// Package core defines the problem model for reliability-aware VNF service
// provisioning in mobile edge computing (MEC) networks, following Li, Liang,
// Huang and Jia, "Providing Reliability-Aware Virtualized Network Function
// Services for Mobile Edge Computing", IEEE ICDCS 2019.
//
// The model consists of a catalog of VNF types, a set of cloudlets with
// per-slot computing capacity, and a stream of user requests, each asking for
// one VNF type over a window of time slots with an end-to-end reliability
// requirement. Primary and backup VNF instances are placed under one of two
// redundancy schemes: on-site (all instances in a single cloudlet) or
// off-site (at most one instance per cloudlet, spread across several).
package core

import (
	"errors"
	"fmt"
)

// Scheme selects the redundancy scheme used to satisfy a request's
// reliability requirement. Schemes are self-describing: String/Flag name
// them, ParseScheme resolves either spelling, AllSchemes enumerates the
// registry, and MarshalText/UnmarshalText round-trip them through JSON
// and flag values (see scheme.go).
type Scheme int

// Redundancy schemes: the paper's two (Section III) plus the shared-backup
// extension.
const (
	// OnSite places all primary and backup instances of a request in a
	// single cloudlet (Section III-C1).
	OnSite Scheme = iota + 1
	// OffSite places at most one instance per cloudlet across a set of
	// cloudlets (Section III-C2).
	OffSite
	// Shared places one primary instance in a cloudlet and enrolls the
	// request in a backup group: a single pooled backup instance on a
	// second cloudlet shared by up to PoolSize admitted requests, with
	// correlated-failure (occupancy) accounting — see SharedReliabilityK.
	Shared
)

// VNF describes one virtualized network function type f in the catalog F.
type VNF struct {
	// ID is the index of the type within the catalog.
	ID int
	// Name is a human-readable label (e.g. "firewall").
	Name string
	// Demand is the computing-unit cost c(f) of one instance.
	Demand int
	// Reliability is r(f), the probability that a single instance is
	// operational, in the open interval (0, 1).
	Reliability float64
}

// Cloudlet describes one edge server cluster co-located with an access
// point.
type Cloudlet struct {
	// ID is the index of the cloudlet within the network.
	ID int
	// Node is the access-point node in the MEC topology hosting this
	// cloudlet, or -1 when the cloudlet is not bound to a topology.
	Node int
	// Capacity is cap_j, the computing units available in every time slot.
	Capacity int
	// Reliability is r(c), the probability that the cloudlet is
	// operational, in the open interval (0, 1).
	Reliability float64
}

// Request is one user request ρ = (f, R, a, d, pay).
type Request struct {
	// ID identifies the request within a trace.
	ID int
	// VNF is the ID of the requested VNF type in the catalog.
	VNF int
	// Reliability is the requirement R in the open interval (0, 1): the
	// probability that at least one instance is available must be ≥ R.
	Reliability float64
	// Arrival is the arrival slot a (1-based).
	Arrival int
	// Duration is the number of slots d the service must run for.
	Duration int
	// Payment is the revenue collected if the request is admitted.
	Payment float64
}

// End returns the last slot covered by the request, a+d-1.
func (r Request) End() int {
	return r.Arrival + r.Duration - 1
}

// Covers reports whether the request's execution window includes slot t.
// It corresponds to the indicator V_i[t] of the paper.
func (r Request) Covers(t int) bool {
	return t >= r.Arrival && t <= r.End()
}

// Slots returns the request's execution slots in increasing order.
func (r Request) Slots() []int {
	slots := make([]int, 0, r.Duration)
	for t := r.Arrival; t <= r.End(); t++ {
		slots = append(slots, t)
	}
	return slots
}

// Network bundles the static side of a problem instance: the VNF catalog and
// the cloudlets. The time horizon and the request trace are supplied
// separately so the same network can serve many workloads.
type Network struct {
	// Catalog is the set F of VNF types, indexed by VNF.ID.
	Catalog []VNF
	// Cloudlets is the set C, indexed by Cloudlet.ID.
	Cloudlets []Cloudlet
}

// Capacities returns each cloudlet's capacity, indexed by cloudlet ID: the
// vector a timeslot ledger is built from.
func (n *Network) Capacities() []int {
	caps := make([]int, len(n.Cloudlets))
	for j, cl := range n.Cloudlets {
		caps[j] = cl.Capacity
	}
	return caps
}

// Validation errors returned by Network.Validate and Request checks.
var (
	ErrEmptyCatalog     = errors.New("core: empty VNF catalog")
	ErrNoCloudlets      = errors.New("core: no cloudlets")
	ErrBadReliability   = errors.New("core: reliability out of (0,1)")
	ErrBadDemand        = errors.New("core: non-positive demand")
	ErrBadCapacity      = errors.New("core: non-positive capacity")
	ErrBadID            = errors.New("core: ID does not match index")
	ErrUnknownVNF       = errors.New("core: request references unknown VNF")
	ErrBadWindow        = errors.New("core: request window invalid")
	ErrBadPayment       = errors.New("core: negative payment")
	ErrInfeasible       = errors.New("core: reliability requirement unattainable")
	ErrSchemeMismatch   = errors.New("core: placement scheme mismatch")
	ErrBadPlacement     = errors.New("core: malformed placement")
	ErrBelowRequirement = errors.New("core: placement reliability below requirement")
)

// Validate checks the structural invariants of the network: non-empty
// catalog and cloudlet set, IDs equal to slice positions, reliabilities in
// (0,1), positive demands and capacities.
func (n *Network) Validate() error {
	if len(n.Catalog) == 0 {
		return ErrEmptyCatalog
	}
	if len(n.Cloudlets) == 0 {
		return ErrNoCloudlets
	}
	for i, f := range n.Catalog {
		if f.ID != i {
			return fmt.Errorf("%w: VNF %q at index %d has ID %d", ErrBadID, f.Name, i, f.ID)
		}
		if f.Demand <= 0 {
			return fmt.Errorf("%w: VNF %q demand %d", ErrBadDemand, f.Name, f.Demand)
		}
		if !validProbability(f.Reliability) {
			return fmt.Errorf("%w: VNF %q reliability %v", ErrBadReliability, f.Name, f.Reliability)
		}
	}
	for j, c := range n.Cloudlets {
		if c.ID != j {
			return fmt.Errorf("%w: cloudlet at index %d has ID %d", ErrBadID, j, c.ID)
		}
		if c.Capacity <= 0 {
			return fmt.Errorf("%w: cloudlet %d capacity %d", ErrBadCapacity, j, c.Capacity)
		}
		if !validProbability(c.Reliability) {
			return fmt.Errorf("%w: cloudlet %d reliability %v", ErrBadReliability, j, c.Reliability)
		}
	}
	return nil
}

// ValidateRequest checks one request against the network and horizon T.
func (n *Network) ValidateRequest(r Request, horizon int) error {
	if r.VNF < 0 || r.VNF >= len(n.Catalog) {
		return fmt.Errorf("%w: request %d wants VNF %d of %d", ErrUnknownVNF, r.ID, r.VNF, len(n.Catalog))
	}
	if !validProbability(r.Reliability) {
		return fmt.Errorf("%w: request %d requirement %v", ErrBadReliability, r.ID, r.Reliability)
	}
	if r.Arrival < 1 || r.Duration < 1 || r.End() > horizon {
		return fmt.Errorf("%w: request %d window [%d,%d] horizon %d", ErrBadWindow, r.ID, r.Arrival, r.End(), horizon)
	}
	if r.Payment < 0 {
		return fmt.Errorf("%w: request %d payment %v", ErrBadPayment, r.ID, r.Payment)
	}
	return nil
}

// ValidateTrace checks every request in the trace and that IDs match their
// positions.
func (n *Network) ValidateTrace(trace []Request, horizon int) error {
	for i, r := range trace {
		if r.ID != i {
			return fmt.Errorf("%w: request at index %d has ID %d", ErrBadID, i, r.ID)
		}
		if err := n.ValidateRequest(r, horizon); err != nil {
			return err
		}
	}
	return nil
}

// TotalCapacity returns the sum of cloudlet capacities (one slot).
func (n *Network) TotalCapacity() int {
	total := 0
	for _, c := range n.Cloudlets {
		total += c.Capacity
	}
	return total
}

// MaxCloudletReliability returns the largest cloudlet reliability, or 0 when
// there are no cloudlets.
func (n *Network) MaxCloudletReliability() float64 {
	best := 0.0
	for _, c := range n.Cloudlets {
		if c.Reliability > best {
			best = c.Reliability
		}
	}
	return best
}

func validProbability(p float64) bool {
	return p > 0 && p < 1
}
