package core

import "fmt"

// Assignment places a number of instances of one request's VNF in one
// cloudlet.
type Assignment struct {
	// Cloudlet is the target cloudlet ID.
	Cloudlet int `json:"cloudlet"`
	// Instances is the number of primary plus backup instances placed
	// there. Under the off-site scheme this is always 1.
	Instances int `json:"instances"`
}

// Units returns the computing units the assignment consumes per slot for a
// VNF with per-instance demand.
func (a Assignment) Units(demand int) int {
	return a.Instances * demand
}

// SharedBackup references the pooled backup serving a shared-scheme
// placement: one backup instance on Cloudlet, reserved once and shared by
// up to PoolSize members of group Group. The group's ledger footprint is
// reference-counted (timeslot.Pool): the backup row is reserved when the
// first member joins and released when the last member expires.
type SharedBackup struct {
	// Group identifies the backup group (positive, unique per scheduler).
	Group int `json:"group"`
	// Cloudlet hosts the pooled backup instance; it must differ from the
	// placement's primary cloudlet.
	Cloudlet int `json:"cloudlet"`
	// PoolSize is the capacity k the group was priced and validated at:
	// availability is computed for a full pool, so later joiners never
	// invalidate earlier members.
	PoolSize int `json:"pool_size"`
}

// Placement is an admission decision's resource footprint: where each
// instance of a request goes. A placement is valid for exactly one scheme.
type Placement struct {
	// Request is the ID of the placed request.
	Request int
	// Scheme records which redundancy scheme produced the placement.
	Scheme Scheme
	// Assignments lists the per-cloudlet instance counts. On-site
	// placements have exactly one assignment; off-site placements have one
	// assignment per chosen cloudlet, each with a single instance; shared
	// placements have exactly one single-instance assignment (the primary)
	// with the pooled backup recorded in Backup.
	Assignments []Assignment
	// Backup is the pooled backup reference for shared placements and nil
	// for every other scheme.
	Backup *SharedBackup
}

// TotalInstances returns the number of instances across all assignments.
func (p Placement) TotalInstances() int {
	total := 0
	for _, a := range p.Assignments {
		total += a.Instances
	}
	return total
}

// Validate checks the placement's structure and that its availability meets
// the request's reliability requirement under the recorded scheme.
func (p Placement) Validate(n *Network, r Request) error {
	if p.Request != r.ID {
		return fmt.Errorf("%w: placement for request %d checked against %d", ErrBadPlacement, p.Request, r.ID)
	}
	if len(p.Assignments) == 0 {
		return fmt.Errorf("%w: no assignments", ErrBadPlacement)
	}
	for i, a := range p.Assignments {
		if a.Cloudlet < 0 || a.Cloudlet >= len(n.Cloudlets) {
			return fmt.Errorf("%w: unknown cloudlet %d", ErrBadPlacement, a.Cloudlet)
		}
		if a.Instances < 1 {
			return fmt.Errorf("%w: %d instances in cloudlet %d", ErrBadPlacement, a.Instances, a.Cloudlet)
		}
		// Pairwise over at most m assignments: this runs on every proposal,
		// and a set would be a heap allocation each time.
		for _, b := range p.Assignments[:i] {
			if b.Cloudlet == a.Cloudlet {
				return fmt.Errorf("%w: cloudlet %d assigned twice", ErrBadPlacement, a.Cloudlet)
			}
		}
	}
	if p.Scheme != Shared && p.Backup != nil {
		return fmt.Errorf("%w: %v placement carries a shared backup", ErrBadPlacement, p.Scheme)
	}
	switch p.Scheme {
	case OnSite:
		if len(p.Assignments) != 1 {
			return fmt.Errorf("%w: on-site placement spans %d cloudlets", ErrBadPlacement, len(p.Assignments))
		}
	case Shared:
		if len(p.Assignments) != 1 {
			return fmt.Errorf("%w: shared placement has %d primary assignments", ErrBadPlacement, len(p.Assignments))
		}
		a := p.Assignments[0]
		if a.Instances != 1 {
			return fmt.Errorf("%w: shared primary with %d instances in cloudlet %d", ErrBadPlacement, a.Instances, a.Cloudlet)
		}
		b := p.Backup
		if b == nil {
			return fmt.Errorf("%w: shared placement without backup group", ErrBadPlacement)
		}
		if b.Cloudlet < 0 || b.Cloudlet >= len(n.Cloudlets) {
			return fmt.Errorf("%w: unknown backup cloudlet %d", ErrBadPlacement, b.Cloudlet)
		}
		if b.Cloudlet == a.Cloudlet {
			return fmt.Errorf("%w: shared backup co-located with primary in cloudlet %d", ErrBadPlacement, b.Cloudlet)
		}
		if b.Group < 1 {
			return fmt.Errorf("%w: shared backup group %d", ErrBadPlacement, b.Group)
		}
		if b.PoolSize < 1 {
			return fmt.Errorf("%w: shared pool size %d", ErrBadPlacement, b.PoolSize)
		}
	case OffSite:
		for _, a := range p.Assignments {
			if a.Instances != 1 {
				return fmt.Errorf("%w: off-site assignment with %d instances in cloudlet %d", ErrBadPlacement, a.Instances, a.Cloudlet)
			}
		}
	default:
		return fmt.Errorf("%w: invalid scheme %d", ErrBadPlacement, int(p.Scheme))
	}
	if got := p.Availability(n, r); !MeetsRequirement(got, r.Reliability) {
		return fmt.Errorf("%w: %v availability %v < %v", ErrBelowRequirement, p.Scheme, got, r.Reliability)
	}
	return nil
}

// Availability returns the probability that at least one instance of the
// placement is operational — the one place a scheme is mapped onto the
// general product. The dedicated schemes are Availability of their
// assignments; a shared placement's pooled backup is one more factor, scaled
// by the occupancy term at the pool's capacity with peers at the network-wide
// floor (SharedReliabilityK). A placement not shaped for its scheme has 0.
func (p Placement) Availability(n *Network, r Request) float64 {
	switch p.Scheme {
	case OnSite:
		if len(p.Assignments) != 1 {
			return 0
		}
		// Availability's one-site case, asked directly: on the admit path
		// the call in between is a measurable 1.3 ns (DESIGN.md §3.1).
		a := p.Assignments[0]
		return OnsiteReliability(n.Catalog[r.VNF].Reliability, n.Cloudlets[a.Cloudlet].Reliability, a.Instances)
	case OffSite:
		return Availability(n, r.VNF, p.Assignments)
	case Shared:
		if len(p.Assignments) != 1 || p.Backup == nil {
			return 0
		}
		rf := n.Catalog[r.VNF].Reliability
		return SharedReliabilityK(rf, n.Cloudlets[p.Assignments[0].Cloudlet].Reliability,
			n.Cloudlets[p.Backup.Cloudlet].Reliability,
			SharedContentionFloor(rf, n.Cloudlets), p.Backup.PoolSize)
	}
	return 0
}
