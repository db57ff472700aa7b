// Package trace makes the primal–dual admission decision inspectable. A
// scheduler's Propose is a black box from the outside — a rejected request
// yields only a boolean — while the paper's analysis (Algorithm 1/2, the
// competitive ratio of Theorem 1, the capacity-violation bound ξ of
// Lemma 8) is all about *why* a request was priced out: the per-cloudlet
// dual cost Σ_t V_i[t]·N_ij·c(f_i)·λ_{tj} against the payment pay_i, the
// instance ladder N_ij, the off-site weight accumulation toward
// W = -ln(1-R).
//
// The package defines:
//
//   - DecisionTrace: the structured record of one request's decision — per
//     candidate cloudlet the instance count, dual cost, residual capacity
//     and skip reason; per Propose attempt the argmin cloudlet and the
//     payment test; and the final engine outcome;
//   - Recorder: the pluggable sink schedulers emit traces into. Recording
//     is observability, not scheduler-state mutation: the two-phase
//     contract explicitly blesses Recorder calls from Propose;
//   - RecordAttempt: the only place a finished Propose attempt becomes a
//     recorded decision — it derives the payment, the rejection reason,
//     the zeroed cost without a winner and the chosen marks from the
//     attempt's own fields, so every scheduler traces by one rule;
//   - Nop, NewSampling, and the ring-buffer Store (ring.go): the no-op
//     default, a deterministic 1-in-N sampler, and a bounded race-safe
//     store the serve layer exposes over HTTP.
//
// Hot-path cost: schedulers call Recorder.Sample once per Propose and
// skip all trace assembly when it returns false, so a disabled recorder
// costs one interface call and one branch — no allocation.
//
// Reason codes: the Reason enum is the single vocabulary for "why was
// this request (not) admitted", shared by the scheduler layer (priced-out,
// no-feasible-cloudlet, insufficient-weight), the serve engine (stale,
// conflict, queue-full, ...), and the daemon's structured HTTP error
// envelope.
package trace

import (
	"slices"

	"revnf/internal/core"
)

// Reason is one machine-readable decision or error code. The same
// vocabulary flows through DecisionTrace records, the serve engine's
// rejection counters, and the daemon's HTTP error envelope.
type Reason string

// Scheduler-level reasons, produced by Propose.
const (
	// ReasonAdmitted marks the successful outcome.
	ReasonAdmitted Reason = "admitted"
	// ReasonPricedOut marks requests whose payment did not cover the
	// cheapest dual cost (the primal-dual rejection of Algorithms 1–2) —
	// every candidate failed the payment test.
	ReasonPricedOut Reason = "priced-out"
	// ReasonNoFeasibleCloudlet marks requests no cloudlet can serve:
	// reliability-infeasible everywhere, or no residual capacity anywhere.
	ReasonNoFeasibleCloudlet Reason = "no-feasible-cloudlet"
	// ReasonInsufficientWeight marks off-site requests whose surviving
	// candidates could not accumulate the weight target W = -ln(1-R).
	ReasonInsufficientWeight Reason = "insufficient-weight"
)

// Candidate-level skip reasons, set on Candidate.Skip.
const (
	// SkipReliability: r(c_j) ≤ R_i, the cloudlet cannot serve the request
	// at any instance count (on-site), or contributes nothing (off-site).
	SkipReliability Reason = "reliability-infeasible"
	// SkipCapacity: the residual-capacity check over the request's window
	// failed for this cloudlet.
	SkipCapacity Reason = "capacity"
	// SkipPricedOut: the per-cloudlet payment filter of Algorithm 2 line 5
	// removed this candidate before the greedy accumulation.
	SkipPricedOut Reason = "priced-out"
)

// Engine-level reasons, produced by the serve layer around the scheduler.
// The serve package aliases these as its rejection-reason strings, so the
// /metrics label values, AdmissionResult.Reason, and the HTTP error
// envelope all speak the same enum.
const (
	// ReasonInvalid marks requests that fail model validation (also the
	// envelope code for malformed HTTP request bodies and path values).
	ReasonInvalid Reason = "invalid"
	// ReasonStale marks requests whose arrival slot has already passed.
	ReasonStale Reason = "stale"
	// ReasonHorizon marks windows extending beyond the served horizon.
	ReasonHorizon Reason = "horizon"
	// ReasonDeclined marks requests the scheduler rejected; the trace's
	// Propose attempts carry the finer-grained scheduler reason.
	ReasonDeclined Reason = "declined"
	// ReasonOverbooked marks scheduler placements the ledger refused
	// although the view they were proposed from already showed no room (a
	// scheduler violating its feasibility contract).
	ReasonOverbooked Reason = "overbooked"
	// ReasonConflict marks requests whose proposals lost the capacity
	// race to concurrent commits on every bounded retry.
	ReasonConflict Reason = "conflict"
	// ReasonQueueFull marks submissions dropped by backpressure.
	ReasonQueueFull Reason = "queue-full"
	// ReasonClosed marks submissions after shutdown began.
	ReasonClosed Reason = "closed"
	// ReasonCanceled marks submissions abandoned because the client's
	// context was canceled (disconnect or deadline) before a decision.
	ReasonCanceled Reason = "canceled"
	// ReasonSchemeUnavailable marks requests that pinned a redundancy
	// scheme the serving scheduler does not run (the optional "scheme"
	// field of the ingest payloads).
	ReasonSchemeUnavailable Reason = "scheme-unavailable"
	// ReasonNotFound is the envelope code for lookups of unknown IDs.
	ReasonNotFound Reason = "not-found"
	// ReasonInternal is the envelope code for server-side failures.
	ReasonInternal Reason = "internal"
)

// Runtime reasons, produced by the failure-aware runtime after admission.
// Unlike the reasons above they describe events in an admitted placement's
// life, so the records carrying them annotate an existing decision trace
// (Outcome overwrites, Admitted stays true) rather than finalizing a fresh
// one.
const (
	// ReasonFailed marks a placement whose surviving instances no longer
	// meet its reliability target after injected failures.
	ReasonFailed Reason = "failed"
	// ReasonRepaired marks a placement the repair controller re-placed
	// through the normal propose/reserve/commit pipeline.
	ReasonRepaired Reason = "repaired"
	// ReasonDegraded marks a placement explicitly downgraded: the repair
	// retry budget ran out, or the window ended with the observed
	// availability below the requirement.
	ReasonDegraded Reason = "degraded"
)

// Candidate records one cloudlet's evaluation inside a Propose attempt.
type Candidate struct {
	// Cloudlet is the cloudlet index j.
	Cloudlet int `json:"cloudlet"`
	// Instances is the instance count the cloudlet would host: the ladder
	// value N_ij under the on-site scheme, 1 under off-site. Zero when the
	// cloudlet is reliability-infeasible.
	Instances int `json:"instances,omitempty"`
	// Weight is the off-site log-domain weight w_j = -ln(1 - r(f)·r(c_j));
	// zero under the on-site scheme.
	Weight float64 `json:"weight,omitempty"`
	// DualCost is the cloudlet's dual price for this request:
	// Σ_t V_i[t]·N_ij·c(f_i)·λ_{tj} under on-site, the normalized price
	// Σ_t λ_{tj}/w_j under off-site. Not filled for reliability-infeasible
	// candidates (there is no N_ij to price).
	DualCost float64 `json:"dual_cost"`
	// Residual is the minimum residual capacity over the request's window,
	// when the scheduler read it (capacity-enforcing variants).
	Residual int `json:"residual,omitempty"`
	// Skip is the reason the candidate was removed from consideration;
	// empty for candidates that survived to the argmin / accumulation.
	Skip Reason `json:"skip,omitempty"`
	// Chosen marks candidates in the returned placement.
	Chosen bool `json:"chosen,omitempty"`
}

// ProposeTrace records one Propose evaluation. The batch simulator produces
// one per request; the serve engine may retry after ledger conflicts, so a
// DecisionTrace can hold several attempts.
type ProposeTrace struct {
	// Attempt numbers the evaluation within its decision, from 1. The
	// Store assigns it on merge.
	Attempt int `json:"attempt"`
	// Scheduler and Scheme identify the algorithm that produced the
	// attempt.
	Scheduler string `json:"scheduler,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	// Candidates holds every cloudlet's evaluation, in cloudlet order.
	Candidates []Candidate `json:"candidates,omitempty"`
	// BestCloudlet is the argmin cloudlet of the admission test (-1 when
	// no candidate survived). Off-site: the first cloudlet of the greedy
	// accumulation.
	BestCloudlet int `json:"best_cloudlet"`
	// BestCost is the dual-price cost the admission test compared against
	// the payment: Σ_t V_i[t]·N_ij·c(f_i)·λ_{tj} of the argmin cloudlet
	// under on-site. Zero when BestCloudlet is -1 (+Inf is not
	// JSON-encodable; BestCloudlet disambiguates).
	BestCost float64 `json:"best_cost"`
	// NeedWeight and TotalWeight describe the off-site accumulation:
	// the target W = -ln(1-R) and the weight the chosen set reached.
	NeedWeight  float64 `json:"need_weight,omitempty"`
	TotalWeight float64 `json:"total_weight,omitempty"`
	// Payment is pay_i, the right-hand side of the admission test.
	Payment float64 `json:"payment"`
	// Admit is the attempt's verdict; Reason explains a false verdict.
	Admit  bool   `json:"admit"`
	Reason Reason `json:"reason,omitempty"`
}

// DecisionTrace is the complete record of one request's admission
// decision: request metadata, every Propose attempt, and the final
// outcome (filled by the serve engine; batch simulations leave it empty
// and FinalReason falls back to the last attempt).
type DecisionTrace struct {
	// Request is the request ID the trace belongs to.
	Request int `json:"request"`
	// Scheduler and Scheme identify the deciding algorithm.
	Scheduler string `json:"scheduler,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	// VNF, Reliability, Arrival, Duration, Payment mirror the request
	// ρ = (f, R, a, d, pay).
	VNF         int     `json:"vnf"`
	Reliability float64 `json:"reliability"`
	Arrival     int     `json:"arrival"`
	Duration    int     `json:"duration"`
	Payment     float64 `json:"payment"`
	// Slot is the engine slot at decision time (serve layer only).
	Slot int `json:"slot,omitempty"`
	// Attempts holds every Propose evaluation, in order.
	Attempts []ProposeTrace `json:"attempts,omitempty"`
	// Admitted and Outcome are the final verdict. Outcome is empty until
	// an engine finalizes the decision; use FinalReason for the effective
	// reason code.
	Admitted bool   `json:"admitted"`
	Outcome  Reason `json:"outcome,omitempty"`
	// Assignments is the admitted placement's footprint.
	Assignments []core.Assignment `json:"assignments,omitempty"`
}

// NewDecision starts a trace for one request under the given scheduler
// identity.
func NewDecision(req core.Request, scheduler, scheme string) *DecisionTrace {
	return &DecisionTrace{
		Request:     req.ID,
		Scheduler:   scheduler,
		Scheme:      scheme,
		VNF:         req.VNF,
		Reliability: req.Reliability,
		Arrival:     req.Arrival,
		Duration:    req.Duration,
		Payment:     req.Payment,
	}
}

// RecordAttempt records one finished Propose attempt as a one-attempt
// decision: the only place an attempt becomes a DecisionTrace. The
// scheduler fills in what its scan saw — identity, candidates, the winner
// (BestCloudlet, -1 for none, and its cost), the off-site weights and the
// verdict — and the admitted placement's assignments; RecordAttempt derives
// the rest from those fields:
//
//   - Payment is the request's;
//   - BestCost is 0 without a winner (+Inf is not JSON-encodable);
//   - on an admit, every unskipped candidate on an assigned cloudlet is
//     marked chosen (marks set during the scan stay);
//   - a rejection without a preset Reason gets priced-out when every
//     candidate fell to the payment filter, no-feasible-cloudlet for any
//     other attempt without a winner, insufficient-weight for a winner
//     short of a weight target (NeedWeight > 0), and priced-out for a
//     winner that failed the payment test.
//
// Assignments are kept only on an admit.
func RecordAttempt(rec Recorder, req core.Request, pt ProposeTrace, assignments []core.Assignment) {
	pt.Payment = req.Payment
	if pt.BestCloudlet < 0 {
		pt.BestCost = 0
	}
	dt := NewDecision(req, pt.Scheduler, pt.Scheme)
	switch {
	case pt.Admit:
		for i := range pt.Candidates {
			c := &pt.Candidates[i]
			if c.Skip == "" && slices.ContainsFunc(assignments, func(a core.Assignment) bool { return a.Cloudlet == c.Cloudlet }) {
				c.Chosen = true
			}
		}
		dt.Assignments = assignments
	case pt.Reason != "":
		// Preset by the scheduler (the horizon rejection): kept.
	case pt.BestCloudlet >= 0 && pt.NeedWeight > 0:
		pt.Reason = ReasonInsufficientWeight
	case pt.BestCloudlet >= 0,
		len(pt.Candidates) > 0 && !slices.ContainsFunc(pt.Candidates, func(c Candidate) bool { return c.Skip != SkipPricedOut }):
		pt.Reason = ReasonPricedOut
	default:
		pt.Reason = ReasonNoFeasibleCloudlet
	}
	dt.Attempts = []ProposeTrace{pt}
	rec.Record(dt)
}

// RecordHorizon records the attempt of a request a scheduler rejected
// before evaluating any candidate: its window does not fit the live
// window.
func RecordHorizon(rec Recorder, req core.Request, scheduler string, scheme core.Scheme) {
	RecordAttempt(rec, req, ProposeTrace{Scheduler: scheduler, Scheme: scheme.String(),
		BestCloudlet: -1, Reason: ReasonHorizon}, nil)
}

// FinalReason returns the decision's effective reason code: the engine
// outcome when set, otherwise the last attempt's verdict (ReasonAdmitted
// for an admitting attempt). It is empty only for a trace with no
// attempts and no outcome.
func (t *DecisionTrace) FinalReason() Reason {
	if t.Outcome != "" {
		return t.Outcome
	}
	if n := len(t.Attempts); n > 0 {
		last := t.Attempts[n-1]
		if last.Admit {
			return ReasonAdmitted
		}
		return last.Reason
	}
	return ""
}

// Recorder is the pluggable sink decision traces flow into. Two calls
// make up the protocol:
//
//	if rec.Sample(req.ID) {          // once, at the top of Propose
//	    ... collect the candidates ...
//	    RecordAttempt(rec, req, pt, assignments) // once, before returning
//	}
//
// Sample gates all trace assembly: a disabled recorder returns false and
// the hot path pays one interface call. Implementations must be safe for
// concurrent use — the serve engine runs any number of Propose
// calls (and hence Sample/Record pairs) concurrently.
//
// Recording is not scheduler-state mutation: the core.TwoPhase
// contract blesses Recorder emission from Propose, because a trace never
// feeds back into any admission decision.
type Recorder interface {
	// Sample reports whether this request's decision should be traced.
	// It must be deterministic per request ID, so the scheduler layer and
	// the engine layer of one decision agree without coordination.
	Sample(requestID int) bool
	// Record ingests one trace. The recorder owns the pointed-to value
	// after the call; callers must not mutate it afterwards.
	Record(t *DecisionTrace)
}

// Nop is the default recorder: Sample is always false and Record drops.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Sample(int) bool       { return false }
func (nopRecorder) Record(*DecisionTrace) {}

// Sampling records one in every N requests, deterministically by request
// ID (ID mod every == 0), and forwards the rest of the Recorder protocol
// to the inner recorder. Determinism matters twice over: the same request
// samples identically at the scheduler layer and the engine layer, and a
// seeded replay traces the same requests.
type Sampling struct {
	inner Recorder
	every int
}

// NewSampling wraps inner in a 1-in-every sampler. every ≤ 1 returns
// inner unchanged (sampling everything adds nothing).
func NewSampling(inner Recorder, every int) Recorder {
	if every <= 1 {
		return inner
	}
	return &Sampling{inner: inner, every: every}
}

// Sample implements Recorder.
func (s *Sampling) Sample(requestID int) bool {
	return requestID%s.every == 0 && s.inner.Sample(requestID)
}

// Record implements Recorder.
func (s *Sampling) Record(t *DecisionTrace) { s.inner.Record(t) }
