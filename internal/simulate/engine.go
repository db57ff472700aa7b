// Package simulate drives online schedulers over request traces and audits
// every decision: placements are validated against the reliability
// requirement, reservations recorded in the authoritative time-slot ledger,
// and revenue, utilization and capacity violations measured. It also
// provides a Monte-Carlo failure injector that empirically verifies the
// availability of admitted placements by sampling cloudlet and instance
// failures.
package simulate

import (
	"errors"
	"fmt"

	"revnf/internal/core"
	"revnf/internal/timeslot"
	"revnf/internal/workload"
)

// Errors returned by Run.
var (
	ErrBadInstance  = errors.New("simulate: invalid instance")
	ErrBadScheduler = errors.New("simulate: nil scheduler")
	// ErrSchedulerOverbooked reports a scheduler that claimed a placement
	// the ledger cannot hold while violations are disallowed.
	ErrSchedulerOverbooked = errors.New("simulate: scheduler exceeded capacity without violation licence")
)

// Decision records one online admission outcome.
type Decision struct {
	// Request is the request ID.
	Request int
	// Admitted reports the outcome.
	Admitted bool
	// Placement is the resource footprint when admitted.
	Placement core.Placement
}

// Result summarizes one simulation run.
type Result struct {
	// Algorithm and Scheme identify the scheduler.
	Algorithm string
	Scheme    core.Scheme
	// Revenue is the summed payment of admitted requests (objective (6)).
	Revenue float64
	// Admitted and Rejected count decisions.
	Admitted, Rejected int
	// Decisions is the per-request audit trail in arrival order.
	Decisions []Decision
	// Utilization is the mean used/capacity over all (cloudlet, slot)
	// cells at the end of the run.
	Utilization float64
	// Violations lists every overcommitted (cloudlet, slot) cell; empty
	// unless the run allowed violations.
	Violations []timeslot.Violation
	// MaxViolationRatio is the worst used/capacity cell ratio.
	MaxViolationRatio float64
}

// AdmissionRate returns admitted / total, or 0 for an empty trace.
func (r *Result) AdmissionRate() float64 {
	total := r.Admitted + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Admitted) / float64(total)
}

// Option configures a run.
type Option func(*config)

type config struct {
	allowViolations bool
}

// AllowViolations lets the run force-reserve capacity the ledger does not
// have, recording the overcommitment instead of failing. Use it for the
// raw Algorithm 1 whose analysis bounds (but does not prevent) violations.
func AllowViolations() Option {
	return func(c *config) { c.allowViolations = true }
}

// Run feeds the instance's trace to the scheduler in arrival order and
// returns the audited result.
func Run(inst *workload.Instance, sched core.Scheduler, opts ...Option) (*Result, error) {
	if sched == nil {
		return nil, ErrBadScheduler
	}
	if inst == nil {
		return nil, fmt.Errorf("%w: nil", ErrBadInstance)
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	ledger, err := timeslot.New(inst.Network.Capacities(), inst.Horizon)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	// Shared-scheme backup groups hold pooled, refcounted capacity: the
	// pool reserves a group's row once per slot regardless of membership.
	pool := timeslot.NewPool(ledger)
	result := &Result{
		Algorithm: sched.Name(),
		Scheme:    sched.Scheme(),
		Decisions: make([]Decision, 0, len(inst.Trace)),
	}
	// Two-phase schedulers are driven through Propose → validate → reserve
	// → Commit, so the dual update happens only after the ledger accepted
	// the footprint. Both orders are decision-identical for this serial
	// loop (every error path aborts the whole run), but the two-phase order
	// is the one the concurrent serve engine relies on, so the batch
	// simulator exercises the same protocol.
	twoPhase, _ := sched.(core.TwoPhaseScheduler)
	var claims []timeslot.Claim
	for _, req := range inst.Trace {
		var placement core.Placement
		var admitted bool
		if twoPhase != nil {
			placement, admitted = twoPhase.Propose(req, ledger)
		} else {
			placement, admitted = sched.Decide(req, ledger)
		}
		if !admitted {
			result.Rejected++
			result.Decisions = append(result.Decisions, Decision{Request: req.ID})
			continue
		}
		if err := placement.Validate(inst.Network, req); err != nil {
			return nil, fmt.Errorf("simulate: scheduler %q request %d: %w", sched.Name(), req.ID, err)
		}
		var pooled timeslot.Pooled
		claims, pooled = Footprint(claims[:0], placement, inst.Network.Catalog[req.VNF].Demand)
		ok, err := pool.ReserveAll(req.Arrival, req.Duration, claims, pooled, cfg.allowViolations)
		if err != nil {
			return nil, fmt.Errorf("simulate: reserve for request %d: %w", req.ID, err)
		}
		if !ok {
			return nil, fmt.Errorf("%w: %q request %d footprint %v backup %+v",
				ErrSchedulerOverbooked, sched.Name(), req.ID, claims, pooled)
		}
		if twoPhase != nil {
			twoPhase.Commit(req, placement)
		}
		result.Admitted++
		result.Revenue += req.Payment
		result.Decisions = append(result.Decisions, Decision{Request: req.ID, Admitted: true, Placement: placement})
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
func (r *Result) AdmittedPlacements() []core.Placement {
	out := make([]core.Placement, 0, r.Admitted)
	for _, d := range r.Decisions {
		if d.Admitted {
			out = append(out, d.Placement)
		}
	}
	return out
}
