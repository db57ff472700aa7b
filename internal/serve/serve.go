// Package serve turns the repo's online admission algorithms into a
// long-running service. The paper's Algorithms 1–2 are online by
// construction — each request must be accepted or rejected the moment it
// arrives. This package supplies the concurrency shell around a
// scheduler:
//
//   - an Engine with one decision path: every submission decides inline
//     on its own goroutine under one of Config.Workers worker tokens —
//     Propose in parallel, capacity arbitrated atomically by the
//     concurrent timeslot.Ledger, scheduler Commit only after the ledger
//     accepted the footprint. A scheduler that cannot propose
//     concurrently gets one token, which serializes its decisions. A
//     bound on the submissions waiting for a token is the backpressure (a
//     full engine rejects rather than buffering without bound);
//   - a slot clock that maps the paper's discrete time slots onto wall
//     time (or onto manual Tick calls in tests) and releases every
//     placement's capacity back to the ledger exactly when its window
//     ends, at slot a_i + d_i;
//   - graceful shutdown that stops intake, drains in-flight admissions,
//     and answers every caller;
//   - Prometheus-format metrics (admissions, rejections by reason,
//     revenue, per-cloudlet utilization, queue depth, admission latency)
//     rendered with internal/metrics.
//
// The HTTP surface over the Engine lives in this package too (NewHandler);
// cmd/revnfd wires it to a net/http server and cmd/revnfload replays
// generated workloads against it.
package serve

import (
	"errors"
	"time"

	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/trace"
)

// Errors returned by the engine.
var (
	ErrBadConfig = errors.New("serve: invalid config")
	// ErrClosed reports a submission after Shutdown began.
	ErrClosed = errors.New("serve: engine closed")
	// errQueueFull is the gate's refusal at the waiting bound, which
	// SubmitBatch answers with ReasonQueueFull results.
	errQueueFull = errors.New("serve: ingest queue full")
)

// Config assembles an Engine.
type Config struct {
	// Network is the cloudlet fleet and VNF catalog served.
	Network *core.Network
	// Scheduler makes the admission decisions. The engine owns it
	// exclusively from New onward and drives it through Propose and
	// Commit or Abort.
	Scheduler core.Scheduler
	// Horizon is the number of time slots the daemon serves. In fixed mode
	// (the default) it is the paper's horizon T: the clock can run past it,
	// but no admission window may extend beyond slot T. With Rolling set it
	// is the width W of a rolling window [base, base+W-1] that follows the
	// clock, so the daemon admits forever.
	Horizon int
	// Rolling selects the rolling-horizon mode: the slot ledger becomes a
	// circular window of Horizon slots whose base advances with the clock
	// (never past a live reservation), retired slots are recycled, and the
	// scheduler's dual prices age out with them (core.WindowAdvancer).
	// Decisions for request streams fitting inside the window are
	// bit-identical to fixed mode; fixed mode itself is untouched.
	Rolling bool
	// QueueSize bounds the submissions waiting for a worker token beyond
	// the workers deciding; 0 selects DefaultQueueSize.
	QueueSize int
	// Workers is the number of worker tokens (0 selects 1): that many
	// decisions execute concurrently using the propose/commit protocol of
	// core.Scheduler with the ledger arbitrating capacity. If the
	// scheduler does not support concurrent proposals the engine decides
	// with one token whatever this asks; Engine.Workers reports the
	// effective value.
	Workers int
	// SlotDuration is the wall-clock length of one paper time slot. Zero
	// disables the real-time clock: the slot advances only on manual Tick
	// calls, which is the deterministic mode tests use.
	SlotDuration time.Duration
	// Now overrides the clock used for latency measurement (tests).
	Now func() time.Time
	// Traces, when non-nil, stores decision traces and enables the
	// GET /v1/decisions/{id}/trace endpoint. The engine records its
	// pre-scheduler rejections and final outcomes into it; pass the same
	// store to the scheduler (WithRecorder) so Propose attempts land in
	// the same merged trace.
	Traces *trace.Store
	// Recorder overrides the sink the engine records into; nil selects
	// Traces, or the no-op recorder when Traces is nil too. Wrap the
	// store in trace.NewSampling to thin the stream.
	Recorder trace.Recorder
	// Chaos, when non-nil, turns on the failure-aware runtime: the
	// injector's Markov failure chains advance on every Tick, failed
	// placements are re-placed through the propose/commit pipeline, SLO
	// delivery is accounted per request (GET /v1/placements/{id}/health
	// and /metrics), and per-cloudlet failure rates are estimated online.
	// Requires an injector built over the same cloudlet fleet.
	Chaos *chaos.Injector
	// RepairAttempts bounds re-placement attempts per failure episode
	// before a placement is marked degraded; 0 selects
	// repair.DefaultMaxAttempts. Only meaningful with Chaos set.
	RepairAttempts int
}

// DefaultQueueSize is the waiting bound when Config.QueueSize is 0.
const DefaultQueueSize = 256

// Rejection reasons reported in results, metrics, and the HTTP error
// envelope. They alias the trace.Reason enum so the decision traces, the
// /metrics label values, and the error envelope's "reason" field all speak
// one vocabulary.
const (
	// ReasonInvalid marks requests that fail model validation.
	ReasonInvalid = string(trace.ReasonInvalid)
	// ReasonStale marks requests whose arrival slot has already passed.
	ReasonStale = string(trace.ReasonStale)
	// ReasonHorizon marks windows extending beyond the served horizon.
	ReasonHorizon = string(trace.ReasonHorizon)
	// ReasonDeclined marks requests the scheduler priced out or could not
	// place — the paper's genuine online rejection.
	ReasonDeclined = string(trace.ReasonDeclined)
	// ReasonOverbooked marks scheduler placements the ledger refused
	// although the view they were proposed from already showed no room; it
	// indicates a scheduler violating its feasibility contract.
	ReasonOverbooked = string(trace.ReasonOverbooked)
	// ReasonConflict marks requests whose proposals kept losing the
	// capacity race to concurrent commits: the view had the room, the
	// ledger refused the reservation, on every bounded retry. It is the
	// concurrency analogue of ReasonDeclined, not a scheduler bug.
	ReasonConflict = string(trace.ReasonConflict)
	// ReasonQueueFull marks submissions dropped by backpressure.
	ReasonQueueFull = string(trace.ReasonQueueFull)
	// ReasonClosed marks submissions after shutdown began.
	ReasonClosed = string(trace.ReasonClosed)
	// ReasonCanceled marks submissions abandoned because the caller's
	// context ended (client disconnect or deadline) before a decision.
	ReasonCanceled = string(trace.ReasonCanceled)
	// ReasonSchemeUnavailable marks requests that pinned a redundancy
	// scheme (the optional "scheme" payload field) different from the one
	// the serving scheduler runs.
	ReasonSchemeUnavailable = string(trace.ReasonSchemeUnavailable)
)

// rejection indexes the engine's rejection counters, one per reason.
type rejection uint8

const (
	rejInvalid rejection = iota
	rejStale
	rejHorizon
	rejDeclined
	rejOverbooked
	rejConflict
	rejQueueFull
	rejClosed
	rejCanceled
	rejSchemeUnavailable
	numRejections
)

// rejectionReasons names the rejection counters.
var rejectionReasons = [numRejections]string{ReasonInvalid, ReasonStale, ReasonHorizon, ReasonDeclined,
	ReasonOverbooked, ReasonConflict, ReasonQueueFull, ReasonClosed, ReasonCanceled, ReasonSchemeUnavailable}
