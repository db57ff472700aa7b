// Package slo accounts for per-request availability service levels under
// injected failures. Admission promises each request a provisioned
// availability (the reliability math's estimate for its placement); the
// failure runtime then observes the placement slot by slot, and this
// package keeps the ledger of promise vs delivery: observed availability,
// downtime slots, repairs and their latency, and whether the request's
// window ended within its SLO or explicitly degraded.
//
// It also hosts the online failure-rate estimator (RateEstimator), the
// learning half of the loop: the same slot observations that score SLOs
// update Beta posteriors over per-cloudlet availability.
package slo

import (
	"revnf/internal/core"
	"revnf/internal/metrics"
)

// Entry is one admitted request's SLO account.
type Entry struct {
	// ID is the request ID.
	ID int
	// Required is the request's reliability requirement R.
	Required float64
	// Provisioned is the availability the admitted placement promised
	// (core.Placement.Availability at admission time).
	Provisioned float64
	// WindowSlots is the request's execution window length.
	WindowSlots int
	// ObservedSlots counts slots the failure runtime scored; UpSlots and
	// DownSlots partition them by whether at least one instance was live
	// (a slot healed by a same-slot repair counts up).
	ObservedSlots, UpSlots, DownSlots int
	// Repairs counts successful re-placements; RepairLatencySlots sums
	// the slots their failure episodes stayed open.
	Repairs, RepairLatencySlots int
	// Degraded marks a finalized account whose placement exhausted its
	// repair budget or ended its window below Required. While the window
	// is open the placement's record says whether its budget ran out.
	Degraded bool
	// Finalized is set when the window expired and the account closed.
	Finalized bool
}

// Observed returns the delivered availability: UpSlots/ObservedSlots,
// or 1 when nothing was observed (an unobserved window had no detected
// downtime).
func (e Entry) Observed() float64 {
	if e.ObservedSlots == 0 {
		return 1
	}
	return float64(e.UpSlots) / float64(e.ObservedSlots)
}

// Met reports whether the delivered availability meets the requirement.
func (e Entry) Met() bool { return core.MeetsRequirement(e.Observed(), e.Required) }

// Stats aggregates the tracker.
type Stats struct {
	// Tracked counts open accounts; Finalized closed ones.
	Tracked, Finalized int
	// Met and Missed partition finalized accounts by Entry.Met; Degraded
	// counts finalized accounts flagged degraded (a subset of Missed
	// unless the placement recovered after degrading).
	Met, Missed, Degraded int
	// DowntimeSlots sums DownSlots over all accounts; Repairs the
	// successful re-placements.
	DowntimeSlots, Repairs int
	// MeanProvisioned and MeanObserved average finalized accounts (0 when
	// none).
	MeanProvisioned, MeanObserved float64
}

// Tracker is the SLO ledger. It has no lock: its holder serializes every
// call, reads included.
type Tracker struct {
	open      map[int]*Entry
	finalized map[int]*Entry
	latency   *metrics.Histogram

	// stats aggregates finalized outcomes.
	stats struct {
		met, missed, degraded int
		downtime, repairs     int
		sumProvisioned        float64
		sumObserved           float64
	}
}

// latencyBounds buckets repair latency in slots: most repairs land in
// the failing slot (latency 0) or shortly after.
var latencyBounds = []float64{0, 1, 2, 4, 8, 16, 32}

// NewTracker builds an empty tracker.
func NewTracker() *Tracker {
	h, err := metrics.NewHistogram(latencyBounds...)
	if err != nil {
		panic("slo: bad latency bounds: " + err.Error())
	}
	return &Tracker{open: make(map[int]*Entry), finalized: make(map[int]*Entry), latency: h}
}

// Register opens an account for an admitted request. Re-registering an
// ID resets its account (IDs are unique per daemon run).
func (t *Tracker) Register(id int, required, provisioned float64, windowSlots int) {
	t.open[id] = &Entry{ID: id, Required: required, Provisioned: provisioned, WindowSlots: windowSlots}
}

// ObserveSlot scores one slot of an open account.
func (t *Tracker) ObserveSlot(id int, up bool) {
	e, ok := t.open[id]
	if !ok {
		return
	}
	e.ObservedSlots++
	if up {
		e.UpSlots++
	} else {
		e.DownSlots++
		t.stats.downtime++
	}
}

// AddRepair records a successful re-placement and its episode latency.
func (t *Tracker) AddRepair(id, latencySlots int) {
	e, ok := t.open[id]
	if !ok {
		return
	}
	e.Repairs++
	e.RepairLatencySlots += latencySlots
	t.stats.repairs++
	t.latency.Observe(float64(latencySlots))
}

// Finalize closes an account when its window expires and returns the
// final entry; degraded says the placement exhausted its repair budget.
// ok is false for unknown IDs. A closed account that missed its SLO is
// degraded too, so every finalized entry either met its requirement or is
// explicitly marked degraded.
func (t *Tracker) Finalize(id int, degraded bool) (Entry, bool) {
	e, ok := t.open[id]
	if !ok {
		return Entry{}, false
	}
	delete(t.open, id)
	e.Finalized = true
	e.Degraded = degraded || !e.Met()
	t.finalized[id] = e
	if e.Met() {
		t.stats.met++
	} else {
		t.stats.missed++
	}
	if e.Degraded {
		t.stats.degraded++
	}
	t.stats.sumProvisioned += e.Provisioned
	t.stats.sumObserved += e.Observed()
	return *e, true
}

// Get returns a request's account, open or finalized.
func (t *Tracker) Get(id int) (Entry, bool) {
	if e, ok := t.open[id]; ok {
		return *e, true
	}
	if e, ok := t.finalized[id]; ok {
		return *e, true
	}
	return Entry{}, false
}

// RepairLatency returns a snapshot of the repair-latency histogram
// (slots per episode).
func (t *Tracker) RepairLatency() *metrics.Histogram {
	return t.latency.Clone()
}

// Stats snapshots the tracker.
func (t *Tracker) Stats() Stats {
	s := Stats{
		Tracked:       len(t.open),
		Finalized:     len(t.finalized),
		Met:           t.stats.met,
		Missed:        t.stats.missed,
		Degraded:      t.stats.degraded,
		DowntimeSlots: t.stats.downtime,
		Repairs:       t.stats.repairs,
	}
	if s.Finalized > 0 {
		s.MeanProvisioned = t.stats.sumProvisioned / float64(s.Finalized)
		s.MeanObserved = t.stats.sumObserved / float64(s.Finalized)
	}
	return s
}
