package serve

import (
	"fmt"
	"sync/atomic"

	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/repair"
	"revnf/internal/slo"
	"revnf/internal/trace"
)

// failureRuntime bundles the failure-aware subsystem the engine runs when
// Config.Chaos is set: the chaos injector driving the failure model on
// the slot clock, the repair controller deciding which placements to
// re-place, the SLO tracker accounting promise vs delivery, and the
// online failure-rate estimator learning r(c_j) from the injected slot
// states. All mutation happens inside Tick, which holds a worker token (a
// repair proposes and commits like any decision) and the engine mutex; the
// tracker, controller, and estimator carry their own locks only so the
// metrics and HTTP paths can read them concurrently.
type failureRuntime struct {
	injector *chaos.Injector
	ctrl     *repair.Controller
	slo      *slo.Tracker
	est      *slo.RateEstimator
	// slots counts chaos-stepped slots; atomic because metrics read it
	// without the engine mutex.
	slots atomic.Uint64
}

// estimatorPriorStrength is the pseudo-slot weight of the catalog prior
// in the online rate estimator: after this many observed slots, evidence
// and prior weigh equally, so estimates leave the catalog quickly without
// starting at the uninformative 1/2.
const estimatorPriorStrength = 4

// newFailureRuntime validates the chaos wiring at New time.
func newFailureRuntime(cfg Config) (*failureRuntime, error) {
	if got, want := cfg.Chaos.Cloudlets(), len(cfg.Network.Cloudlets); got != want {
		return nil, fmt.Errorf("%w: chaos injector models %d cloudlets, network has %d", ErrBadConfig, got, want)
	}
	return &failureRuntime{
		injector: cfg.Chaos,
		ctrl:     repair.New(cfg.RepairAttempts),
		slo:      slo.NewTracker(),
		est:      slo.NewCatalogEstimator(cfg.Network, estimatorPriorStrength),
	}, nil
}

// SLO returns the engine's SLO tracker, nil when chaos is disabled.
func (e *Engine) SLO() *slo.Tracker {
	if e.runtime == nil {
		return nil
	}
	return e.runtime.slo
}

// Estimator returns the online failure-rate estimator (a
// core.ReliabilitySource), nil when chaos is disabled.
func (e *Engine) Estimator() *slo.RateEstimator {
	if e.runtime == nil {
		return nil
	}
	return e.runtime.est
}

// RepairStats snapshots the repair controller; zero when chaos is
// disabled.
func (e *Engine) RepairStats() repair.Stats {
	if e.runtime == nil {
		return repair.Stats{}
	}
	return e.runtime.ctrl.Stats()
}

// watchAdmissionLocked registers a fresh admission with the failure
// runtime. Caller holds e.mu.
func (e *Engine) watchAdmissionLocked(req core.Request, placement core.Placement) {
	rt := e.runtime
	rt.injector.Watch(req.ID, req.VNF, req.Arrival, req.End(), watchedAssignments(placement))
	rt.slo.Register(req.ID, req.Reliability, placement.Availability(e.network, req), req.Duration)
}

// watchedAssignments is the instance footprint the failure model tracks
// for a placement: the assignments, plus — for shared placements — the
// pooled backup instance, so backup-cloudlet failures surface in each
// member's Alive set and trigger per-member re-placement (the group is
// re-placed member by member, with the pool releasing the dead group's
// row as the last member leaves).
func watchedAssignments(p core.Placement) []core.Assignment {
	if p.Backup == nil {
		return p.Assignments
	}
	out := make([]core.Assignment, 0, len(p.Assignments)+1)
	out = append(out, p.Assignments...)
	return append(out, core.Assignment{Cloudlet: p.Backup.Cloudlet, Instances: 1})
}

// finalizeExpiredLocked closes a placement's runtime accounts when its
// window ends. Caller holds e.mu.
func (e *Engine) finalizeExpiredLocked(id int) {
	rt := e.runtime
	rt.injector.Unwatch(id)
	alreadyDegraded := rt.ctrl.State(id) == repair.StateDegraded
	rt.ctrl.Forget(id)
	fin, ok := rt.slo.Finalize(id)
	if !ok {
		return
	}
	// Finalize degrades any account that ended below its requirement, so
	// every closed window either met its SLO or carries an explicit
	// degraded mark — and the trace says so, unless the repair controller
	// already emitted the degraded event for this placement.
	if fin.Degraded && !alreadyDegraded {
		e.recordRuntimeEvent(id, e.slot, trace.ReasonDegraded)
	}
}

// runtimeTickLocked advances the failure model by one slot: step the
// injector, feed the estimator, score every in-window placement, and
// repair the ones whose surviving footprint no longer meets their
// reliability target. Caller holds a worker token and e.mu; the slot has
// already advanced and expired placements are already released and
// unwatched.
func (e *Engine) runtimeTickLocked() {
	rt := e.runtime
	// A fixed horizon ends: past slot T nothing can hold capacity, so the
	// failure model stops. A rolling window never ends.
	if !e.rolling && e.slot > e.horizon {
		return
	}
	rep := rt.injector.Step(e.slot)
	rt.slots.Add(1)
	for j, up := range rep.CloudletUp {
		rt.est.Observe(j, up)
	}
	for _, ph := range rep.Placements {
		rec := e.book.liveRecord(ph.ID)
		if rec == nil {
			continue
		}
		if rec.State == StateDegraded {
			// Past repairing: keep scoring delivered service only.
			rt.slo.ObserveSlot(ph.ID, ph.Up)
			continue
		}
		// Health is checked against the catalog rates the placement was
		// provisioned under: repair restores the promised redundancy. (The
		// estimator's learned rates are exported for observability and for
		// rebuilding schedulers, not for second-guessing live footprints.)
		_, meets := repair.MeetsPlacement(e.network, rec.Request, rec.Placement, ph.Alive)
		act, opened := rt.ctrl.Observe(ph.ID, e.slot, meets)
		if opened {
			e.recordRuntimeEvent(ph.ID, e.slot, trace.ReasonFailed)
		}
		up := ph.Up
		if act == repair.ActionRepair {
			if e.repairLocked(rec) {
				latency := rt.ctrl.RepairSucceeded(ph.ID, e.slot)
				rt.slo.AddRepair(ph.ID, latency)
				e.recordRuntimeEvent(ph.ID, e.slot, trace.ReasonRepaired)
				// The re-placed instances come up within this slot.
				up = true
			} else if rt.ctrl.RepairFailed(ph.ID, e.slot) == repair.StateDegraded {
				rt.slo.MarkDegraded(ph.ID)
				rec.State = StateDegraded
				e.book.refile(rec)
				e.recordRuntimeEvent(ph.ID, e.slot, trace.ReasonDegraded)
			}
		}
		rt.slo.ObserveSlot(ph.ID, up)
	}
}

// repairLocked re-places one failed request through the normal admission
// pipeline: Propose against the live ledger, reserve the new footprint
// all-or-nothing, Commit the scheduler state, and only then release the
// old footprint (make-before-break — the new reservation must fit on top
// of the surviving one, so a refused repair leaves the books exactly as
// they were). The repair request keeps the original ID and payment (no
// revenue is re-counted) and covers the remaining window only. Caller
// holds a worker token and e.mu; returns whether the re-placement landed.
func (e *Engine) repairLocked(rec *PlacementRecord) bool {
	rt := e.runtime
	end := rec.Request.End()
	req := rec.Request
	req.Arrival = e.slot
	req.Duration = end - e.slot + 1
	if req.Duration < 1 {
		return false
	}
	placement, ok := e.sched.Propose(req, e.ledger)
	if !ok {
		return false
	}
	if placement.Validate(e.network, req) != nil {
		e.sched.Abort(req, placement)
		return false
	}
	demand := e.network.Catalog[req.VNF].Demand
	if !e.reserveAll(req, placement, demand) {
		e.sched.Abort(req, placement)
		return false
	}
	e.sched.Commit(req, placement)
	// The new footprint is booked; release the old one over its live window.
	// Leaving the old backup group drops the group's row on slots this
	// member was the last to cover, so a group whose backup cloudlet died
	// dissolves as its members are re-placed.
	e.releaseFootprint(rec)
	rec.Placement, rec.ReservedFrom = placement, e.slot
	e.book.refile(rec)
	rt.injector.Rewatch(rec.ID, watchedAssignments(placement))
	return true
}

// recordRuntimeEvent annotates a decision trace with a runtime outcome
// (failed/repaired/degraded). The record carries no attempts and no
// request metadata, so the store merges it into the resident trace and
// drops it if the decision was already evicted.
func (e *Engine) recordRuntimeEvent(id, slot int, reason trace.Reason) {
	if !e.rec.Sample(id) {
		return
	}
	e.rec.Record(&trace.DecisionTrace{Request: id, Slot: slot, Outcome: reason, Admitted: true})
}
