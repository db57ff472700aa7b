package serve

import (
	"fmt"

	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/repair"
	"revnf/internal/slo"
	"revnf/internal/trace"
)

// failureRuntime bundles the failure-aware subsystem the engine runs when
// Config.Chaos is set: the chaos injector driving the failure model on
// the slot clock, the repair counters (each placement's repair episode
// rides on its live record), the SLO tracker accounting promise vs
// delivery, and the online failure-rate estimator learning r(c_j) from the
// injected slot states. The engine mutex is its only lock: the engine
// reaches it through Engine.runtime, guarded by mu, and all mutation
// happens inside Tick, which also holds a worker token (a repair proposes
// and commits like any decision).
type failureRuntime struct {
	injector *chaos.Injector
	slo      *slo.Tracker
	est      *slo.RateEstimator
	// maxAttempts is the repair budget of one failure episode.
	maxAttempts int
	// slots counts chaos-stepped slots; repairs the episodes' outcomes;
	// degraded the placements marked degraded, each once, at the slot its
	// degraded event is traced.
	slots    uint64
	repairs  repair.Stats
	degraded uint64
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
	maxAttempts := cfg.RepairAttempts
	if maxAttempts <= 0 {
		maxAttempts = repair.DefaultMaxAttempts
	}
	return &failureRuntime{
		injector:    cfg.Chaos,
		slo:         slo.NewTracker(),
		est:         slo.NewCatalogEstimator(cfg.Network, estimatorPriorStrength),
		maxAttempts: maxAttempts,
	}, nil
}

// RepairStats snapshots the repair counters; zero when chaos is disabled.
func (e *Engine) RepairStats() repair.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runtime == nil {
		return repair.Stats{}
	}
	return e.runtime.repairs
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

// finalizeExpiredLocked closes an expired placement's runtime accounts.
// Caller holds e.mu.
func (e *Engine) finalizeExpiredLocked(rec *PlacementRecord) {
	rt := e.runtime
	rt.injector.Unwatch(rec.ID)
	degraded := rec.State == StateDegraded
	fin, ok := rt.slo.Finalize(rec.ID, degraded)
	// Finalize degrades any account that ended below its requirement, so
	// every closed window either met its SLO or carries an explicit
	// degraded mark — and the trace says so, unless the runtime already
	// emitted the degraded event when the repair budget ran out.
	if ok && fin.Degraded && !degraded {
		e.degradedLocked(rec.ID)
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
	rt.slots++
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
		if rec.episode.Observe(e.slot, meets) {
			rt.repairs.Episodes++
			e.recordRuntimeEvent(ph.ID, e.slot, trace.ReasonFailed)
		}
		up := ph.Up
		switch {
		case meets:
			// Healthy, or recovered on its own: nothing to repair.
		case e.repairLocked(rec):
			rt.repairs.Repairs++
			rt.slo.AddRepair(ph.ID, rec.episode.Succeeded(e.slot))
			e.recordRuntimeEvent(ph.ID, e.slot, trace.ReasonRepaired)
			// The re-placed instances come up within this slot.
			up = true
		default:
			rt.repairs.FailedAttempts++
			if rec.episode.Failed(rt.maxAttempts) {
				rt.repairs.Degraded++
				rec.State = StateDegraded
				e.book.refile(rec)
				e.degradedLocked(ph.ID)
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

// degradedLocked counts a placement degraded and traces the event. Caller
// holds e.mu.
func (e *Engine) degradedLocked(id int) {
	e.runtime.degraded++
	e.recordRuntimeEvent(id, e.slot, trace.ReasonDegraded)
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
