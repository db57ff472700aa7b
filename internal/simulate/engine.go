// Package simulate drives online schedulers over request traces — single
// VNFs (Run) and service function chains (RunChains), through one
// admission loop — and audits every decision: placements are validated
// against the reliability requirement, reservations recorded in the
// authoritative time-slot ledger, and revenue, utilization and capacity
// violations measured. It also provides a Monte-Carlo failure injector
// that empirically verifies the availability of admitted placements by
// sampling cloudlet and instance failures.
package simulate

import (
	"errors"
	"fmt"

	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/timeslot"
	"revnf/internal/workload"
)

// Errors returned by Run and RunChains.
var (
	ErrBadInstance  = errors.New("simulate: invalid instance")
	ErrBadScheduler = errors.New("simulate: nil scheduler")
	// ErrSchedulerOverbooked reports a scheduler without the violation
	// licence that claimed a placement the ledger cannot hold.
	ErrSchedulerOverbooked = errors.New("simulate: scheduler exceeded capacity without violation licence")
)

// Decision records one online admission outcome.
type Decision[P any] struct {
	// Request is the request ID.
	Request int
	// Admitted reports the outcome.
	Admitted bool
	// Placement is the resource footprint when admitted.
	Placement P
}

// Result summarizes one simulation run.
type Result[P any] struct {
	// Algorithm and Scheme identify the scheduler.
	Algorithm string
	Scheme    core.Scheme
	// Revenue is the summed payment of admitted requests (objective (6)).
	Revenue float64
	// Admitted and Rejected count decisions.
	Admitted, Rejected int
	// Decisions is the per-request audit trail in arrival order.
	Decisions []Decision[P]
	// Utilization is the mean used/capacity over all (cloudlet, slot)
	// cells at the end of the run.
	Utilization float64
	// Violations lists every overcommitted (cloudlet, slot) cell; empty
	// unless the scheduler is licensed to overcommit.
	Violations []timeslot.Violation
	// MaxViolationRatio is the worst used/capacity cell ratio.
	MaxViolationRatio float64
}

// AdmissionRate returns admitted / total, or 0 for an empty trace.
func (r *Result[P]) AdmissionRate() float64 {
	total := r.Admitted + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Admitted) / float64(total)
}

// Run feeds the instance's trace to the scheduler in arrival order and
// returns the audited result. A scheduler licensed to overcommit
// (core.ViolationLicensee, the raw Algorithm 1) has its placements
// force-reserved and the overcommitment recorded; any other scheduler's
// overbooked placement is ErrSchedulerOverbooked.
func Run(inst *workload.Instance, sched core.Scheduler) (*Result[core.Placement], error) {
	if sched == nil {
		return nil, ErrBadScheduler
	}
	if inst == nil {
		return nil, fmt.Errorf("%w: nil", ErrBadInstance)
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	lic, ok := sched.(core.ViolationLicensee)
	allowViolations := ok && lic.AllowsViolations()
	footprint := func(buf []timeslot.Claim, r core.Request, p core.Placement) ([]timeslot.Claim, timeslot.Pooled) {
		return Footprint(buf, p, inst.Network.Catalog[r.VNF].Demand)
	}
	return run(inst.Network, inst.Horizon, inst.Trace, inst.Trace, sched, allowViolations, footprint)
}

// RunChains is Run for service function chains: it feeds the chain trace
// to the scheduler in arrival order, validating every placement's
// structure, scheme shape and whole-chain availability. Chain schedulers
// have no violation licence: an overbooked placement is an error. An
// instance failing its Validate is ErrBadInstance and chain.ErrBadInstance.
func RunChains(inst *chain.Instance, sched core.TwoPhase[chain.Request, chain.Placement]) (*Result[chain.Placement], error) {
	if sched == nil {
		return nil, ErrBadScheduler
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInstance, err)
	}
	heads := make([]core.Request, len(inst.Trace))
	for i, r := range inst.Trace {
		heads[i] = core.Request{ID: r.ID, Arrival: r.Arrival, Duration: r.Duration, Payment: r.Payment}
	}
	footprint := func(buf []timeslot.Claim, _ chain.Request, p chain.Placement) ([]timeslot.Claim, timeslot.Pooled) {
		return p.Footprint(buf, inst.Network.Catalog), timeslot.Pooled{}
	}
	return run(inst.Network, inst.Horizon, inst.Trace, heads, sched, false, footprint)
}

// run is the admission loop of both request kinds, the protocol the
// concurrent serve engine drives: Propose → validate → reserve the
// footprint atomically → Commit, one request at a time. heads[i] carries
// trace[i]'s ID, window and payment; footprint appends what a placement
// asks of the ledger to buf and returns it with its pooled backup row.
func run[R any, P interface{ Validate(*core.Network, R) error }](
	network *core.Network, horizon int, trace []R, heads []core.Request, sched core.TwoPhase[R, P], allowViolations bool,
	footprint func(buf []timeslot.Claim, req R, p P) ([]timeslot.Claim, timeslot.Pooled),
) (*Result[P], error) {
	ledger, err := timeslot.New(network.Capacities(), horizon)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	// Shared-scheme backup groups hold pooled, refcounted capacity: the
	// pool reserves a group's row once per slot regardless of membership.
	// Without a pooled row a pool reservation is the ledger's own.
	pool := timeslot.NewPool(ledger)
	result := &Result[P]{
		Algorithm: sched.Name(),
		Scheme:    sched.Scheme(),
		Decisions: make([]Decision[P], 0, len(trace)),
	}
	var claims []timeslot.Claim
	for i, req := range trace {
		head := heads[i]
		placement, admitted := sched.Propose(req, ledger)
		if !admitted {
			result.Rejected++
			result.Decisions = append(result.Decisions, Decision[P]{Request: head.ID})
			continue
		}
		if err := placement.Validate(network, req); err != nil {
			return nil, fmt.Errorf("simulate: scheduler %q request %d: %w", sched.Name(), head.ID, err)
		}
		var pooled timeslot.Pooled
		claims, pooled = footprint(claims[:0], req, placement)
		ok, err := pool.ReserveAll(head.Arrival, head.Duration, claims, pooled, allowViolations)
		if err != nil {
			return nil, fmt.Errorf("simulate: reserve for request %d: %w", head.ID, err)
		}
		if !ok {
			return nil, fmt.Errorf("%w: %q request %d footprint %v backup %+v",
				ErrSchedulerOverbooked, sched.Name(), head.ID, claims, pooled)
		}
		sched.Commit(req, placement)
		result.Admitted++
		result.Revenue += head.Payment
		result.Decisions = append(result.Decisions, Decision[P]{Request: head.ID, Admitted: true, Placement: placement})
	}
	result.Utilization = ledger.Utilization()
	result.Violations = ledger.Violations()
	result.MaxViolationRatio = ledger.MaxViolationRatio()
	return result, nil
}

// Footprint appends to buf what a placement of a VNF with per-instance
// demand asks of the ledger — one claim per assignment — and returns it
// with the placement's pooled backup row (the zero Pooled when it has none).
func Footprint(buf []timeslot.Claim, p core.Placement, demand int) ([]timeslot.Claim, timeslot.Pooled) {
	for _, a := range p.Assignments {
		buf = append(buf, timeslot.Claim{Cloudlet: a.Cloudlet, Units: a.Units(demand)})
	}
	var pooled timeslot.Pooled
	if b := p.Backup; b != nil {
		pooled = timeslot.Pooled{Group: b.Group, Cloudlet: b.Cloudlet, Units: demand}
	}
	return buf, pooled
}

// AdmittedPlacements extracts the placements of admitted requests, in
// arrival order, for downstream analysis such as failure injection.
func (r *Result[P]) AdmittedPlacements() []P {
	out := make([]P, 0, r.Admitted)
	for _, d := range r.Decisions {
		if d.Admitted {
			out = append(out, d.Placement)
		}
	}
	return out
}
