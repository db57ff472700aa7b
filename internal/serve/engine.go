package serve

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"revnf/internal/core"
	"revnf/internal/metrics"
	"revnf/internal/repair"
	"revnf/internal/simulate"
	"revnf/internal/timeslot"
	"revnf/internal/trace"
)

// AdmissionRequest is one service request submitted to the daemon. It is
// the paper's ρ = (f, R, a, d, pay) without an ID — the engine assigns
// IDs.
type AdmissionRequest struct {
	// VNF is the requested catalog type.
	VNF int `json:"vnf"`
	// Reliability is the requirement R in (0,1).
	Reliability float64 `json:"reliability"`
	// Arrival is the first execution slot; 0 means "now" (the engine's
	// current slot).
	Arrival int `json:"arrival,omitempty"`
	// Duration is the number of slots d ≥ 1.
	Duration int `json:"duration"`
	// Payment is the revenue collected on admission.
	Payment float64 `json:"payment"`
	// Scheme optionally pins the redundancy scheme the request demands
	// (either spelling, resolved by core.ParseScheme). Empty accepts
	// whatever scheme the daemon runs; a non-empty value naming a different
	// scheme is rejected with ReasonSchemeUnavailable.
	Scheme string `json:"scheme,omitempty"`
}

// AdmissionResult is the engine's decision for one submission.
type AdmissionResult struct {
	// ID is the engine-assigned request (and placement) ID.
	ID int `json:"id"`
	// Admitted reports the outcome.
	Admitted bool `json:"admitted"`
	// Reason explains a rejection; empty when admitted.
	Reason string `json:"reason,omitempty"`
	// Slot is the slot at which the decision was made.
	Slot int `json:"slot"`
	// Placement is the resource footprint when admitted.
	Placement core.Placement `json:"-"`
}

// PlacementState describes where a placement is in its lifecycle.
type PlacementState string

// Placement lifecycle states.
const (
	// StateScheduled means the window has not started yet.
	StateScheduled PlacementState = "scheduled"
	// StateActive means the current slot is inside the window.
	StateActive PlacementState = "active"
	// StateExpired means the window ended and the capacity was released.
	StateExpired PlacementState = "expired"
	// StateDegraded means the failure runtime exhausted the placement's
	// repair budget: the surviving instances no longer meet the
	// reliability target and re-placement kept failing. The capacity still
	// held is released normally at expiry.
	StateDegraded PlacementState = "degraded"
)

// PlacementRecord is the engine's book entry for one admitted request.
type PlacementRecord struct {
	// ID is the engine-assigned request ID.
	ID int
	// Request is the admitted request (with the engine's ID).
	Request core.Request
	// Placement is the admitted footprint.
	Placement core.Placement
	// DecidedSlot is the slot at which admission happened.
	DecidedSlot int
	// State is the lifecycle state as of the last read.
	State PlacementState
	// ReservedFrom is the first slot of the live ledger reservation: the
	// request's arrival at admission, moved forward when the failure
	// runtime re-places the request mid-window (the repair reserves
	// [repair slot, end] and releases the old footprint).
	ReservedFrom int

	// episode is the failure runtime's repair episode for the live record.
	episode repair.Episode
}

// TickReport summarizes one slot advance.
type TickReport struct {
	// Slot is the slot the clock advanced to.
	Slot int
	// Expired counts placements whose capacity was released by this tick.
	Expired int
}

// Stats is a consistent snapshot of the engine's counters.
type Stats struct {
	// Slot is the current slot; Horizon the served horizon (the fixed T,
	// or the rolling window width W).
	Slot, Horizon int
	// WindowBase is the first live slot of the ledger window (1 in fixed
	// mode); Rolling reports the horizon mode.
	WindowBase int
	Rolling    bool
	// Workers is the decision concurrency: the number of worker tokens.
	Workers int
	// QueueDepth counts submissions accepted into the engine but not yet
	// decided (waiting for a worker token or deciding right now);
	// QueueCapacity is the bound on those waiting beyond the workers.
	QueueDepth, QueueCapacity int
	// InFlight counts worker tokens held at snapshot time: decisions
	// executing, plus a Tick of the failure runtime.
	InFlight int
	// Admitted and Expired count decisions and released placements.
	Admitted, Expired uint64
	// AdmittedByScheme splits Admitted by placement scheme (display
	// names); schemes with no admissions are absent.
	AdmittedByScheme map[string]uint64
	// Rejections counts rejected submissions by reason.
	Rejections map[string]uint64
	// ConflictRetries counts ledger reservation refusals under concurrent
	// commit races (each triggers a re-propose, not necessarily a
	// rejection).
	ConflictRetries uint64
	// ViewLoads counts the window loads decisions asked of their token's
	// ledger view. ViewRefreshes counts those that re-copied, under the
	// ledger's lock, only the rows written since the copy they had, and
	// ViewCopies those that copied every row; the rest kept a copy nothing
	// had been written since.
	ViewLoads, ViewRefreshes, ViewCopies uint64
	// Revenue is the summed payment of admitted requests (objective (6)).
	Revenue float64
	// ActivePlacements counts admitted, not-yet-expired placements.
	ActivePlacements int
	// BackupGroups counts the shared-backup groups holding ledger capacity.
	BackupGroups int
	// FiledPlacements counts the history's placements (every admission),
	// BookBytes its heap (chunks in memory, whole, their rows and every
	// chunk's span), SpilledBytes its spill file, SpillErrors its failed
	// spills and reads, LateIDs the IDs in its late map (refiled ones too).
	FiledPlacements, BookBytes, SpilledBytes, SpillErrors, LateIDs int
	// CloudletUsed and CloudletCapacity give per-cloudlet units in use at
	// the current slot (zero usage once the slot passes the horizon).
	CloudletUsed, CloudletCapacity []int
	// Latency is a snapshot of the admission latency histogram (seconds,
	// submission to decision). SubmitBatch observes once per call, so Count
	// is the number of calls (one per HTTP POST, one per streamed batch),
	// not of decisions.
	Latency *metrics.Histogram
}

// RejectedTotal sums rejections across reasons.
func (s Stats) RejectedTotal() uint64 {
	total := uint64(0)
	for _, n := range s.Rejections {
		total += n
	}
	return total
}

// Engine is the thread-safe admission core of the daemon. Every submission
// runs its own decision inline on the submitting goroutine, bounded by a
// semaphore of Workers tokens. A decision is Propose (lock-free against
// other proposals) followed by an atomic ledger reservation of the whole
// footprint; the concurrent ledger arbitrates capacity races, and a refusal
// the proposal's view did not predict (another commit consumed the capacity
// first) triggers a bounded re-propose before rejecting with
// ReasonConflict. Commit runs only after the ledger accepted the footprint,
// so scheduler state never moves for a request that did not get its
// capacity. A scheduler whose ConcurrentPropose is false gets one token
// whatever Workers asks: holding the token is what serializes its
// Propose→Commit pairs. Placement and revenue bookkeeping stays under the
// engine mutex (admissions are rare once capacity binds); a decision's
// rejection counts and latency land in its token's own shard, so the
// rejection path touches neither the engine mutex nor a shared word.
//
// Lock order: worker token, then mu; never the reverse.
type Engine struct {
	cfg     Config
	network *core.Network
	horizon int
	workers int
	now     func() time.Time

	// rolling selects the rolling-horizon mode (Config.Rolling): the
	// ledger is a circular window of horizon slots whose base Tick
	// advances with the clock, up to the first row still holding units.
	rolling bool
	// allowViolations force-reserves what the ledger cannot hold: set when
	// the scheduler is licensed to overcommit (core.ViolationLicensee, the
	// raw Algorithm 1), whose overcommitment Lemma 8 bounds.
	allowViolations bool
	// advancer is the scheduler's window-aging hook (non-nil when the
	// scheduler implements core.WindowAdvancer); called after every ledger
	// advance that moved the base, so dual prices retire with their slots.
	advancer core.WindowAdvancer

	// rec receives engine-level decision records (pre-scheduler rejections
	// and final outcomes); trace.Nop unless Config provides a sink. traces
	// is the store behind the /v1/decisions/{id}/trace endpoint (nil when
	// tracing is off).
	rec    trace.Recorder
	traces *trace.Store

	// chaos is set when Config.Chaos turns the failure runtime on. It never
	// changes, so Tick reads it without the lock to decide whether to take a
	// worker token first.
	chaos bool

	// ingest tracks the wire layer: per-protocol request/connection
	// counters and the streaming batch-size distribution.
	ingest *ingestStats

	sched  core.Scheduler
	ledger *timeslot.Ledger

	mu sync.Mutex
	// reader is the capacity view the read endpoints snapshot through.
	reader *timeslot.Reader // guarded by mu
	// runtime is the failure-aware subsystem (chaos injection, repair
	// counters, SLO accounting, rate estimation); nil unless chaos is set.
	// Its state has no lock of its own: readers take mu too.
	runtime *failureRuntime // guarded by mu
	// pool books footprints with their shared-backup membership: group
	// footprints are reserved when the first member joins and released when
	// the last member expires. Its groups are ledger state, under the
	// ledger's lock.
	pool *timeslot.Pool
	slot int // guarded by mu
	// book is the ID-keyed state: the live records, filed in the expiry
	// ring they leave from, and the pointer-free history of every admission
	// (book.go).
	book     placementBook // guarded by mu
	admitted uint64        // guarded by mu
	expired  uint64        // guarded by mu
	// admittedByScheme splits the admitted counter by placement scheme, a
	// valid one (Placement.Validate), so an index.
	admittedByScheme [core.Shared + 1]uint64 // guarded by mu
	revenue          float64                 // guarded by mu

	// rejections counts the gate's refusals — queue-full, closed, canceled —
	// by reason; a decision's own rejections count in its token's shard.
	rejections [numRejections]atomic.Uint64

	// shards holds one latency histogram and one set of rejection counters
	// per worker token. The holder of token i owns shards[i]; the per-shard
	// mutex only arbitrates against Stats snapshots.
	shards []*shardHist
	// views holds one capacity view per worker token, likewise owned by the
	// token's holder, who loads the request's window before every Propose.
	views []*timeslot.Reader

	// slotNow mirrors slot for lock-free reads on the decision path.
	slotNow atomic.Int64
	// lastID is the atomic ID allocator (IDs start at 1).
	lastID atomic.Int64
	// waiting counts submissions accepted but not yet decided.
	waiting atomic.Int64
	// conflicts counts ledger reservation refusals lost to a race, and
	// clockPanics the real-time clock's ticks that panicked.
	conflicts, clockPanics atomic.Uint64
	// viewLoads, viewRefreshes and viewCopies sum the views' load counts;
	// leave adds them.
	viewLoads, viewRefreshes, viewCopies atomic.Uint64

	// queueCap bounds the submissions waiting for a token beyond the
	// workers deciding. sem is preloaded with the token indices
	// 0..workers-1: a decision acquires a token by receiving and returns it
	// by sending, so len(sem) counts idle tokens.
	queueCap int
	sem      chan int
	quit     chan struct{}
	wg       sync.WaitGroup
	// inflight counts submissions past the gate's closed check so Shutdown
	// can drain them; an atomic keeps the submit path free of a mutex.
	inflight   atomic.Int64
	closedFlag atomic.Bool
}

// shardHist is one worker token's latency histogram and rejection
// counters. Only the goroutine holding the token writes to it, so the mutex
// is uncontended except against Stats snapshots, and the counters are
// atomics for Stats alone.
type shardHist struct {
	mu         sync.Mutex
	h          *metrics.Histogram // guarded by mu
	rejections [numRejections]atomic.Uint64
}

// New validates the config, builds the engine and, when SlotDuration > 0,
// starts its real-time slot clock at slot 1. A scheduler that does not
// support concurrent proposals decides with one worker token whatever
// Workers asks.
func New(cfg Config) (*Engine, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("%w: nil scheduler", ErrBadConfig)
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadConfig)
	}
	if err := cfg.Network.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadConfig, cfg.Horizon)
	}
	if cfg.QueueSize < 0 {
		return nil, fmt.Errorf("%w: queue size %d", ErrBadConfig, cfg.QueueSize)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers %d", ErrBadConfig, cfg.Workers)
	}
	queueSize := cfg.QueueSize
	if queueSize == 0 {
		queueSize = DefaultQueueSize
	}
	workers := max(cfg.Workers, 1)
	if !cfg.Scheduler.ConcurrentPropose() {
		// The one token is the serialization of its Propose→Commit pairs.
		workers = 1
	}
	caps := cfg.Network.Capacities()
	var ledger *timeslot.Ledger
	var err error
	if cfg.Rolling {
		ledger, err = timeslot.NewRolling(caps, cfg.Horizon)
	} else {
		ledger, err = timeslot.New(caps, cfg.Horizon)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	// Buckets from 10µs to ~10s cover in-process decisions through loaded
	// network round-trips.
	latencyBounds := metrics.ExponentialBounds(10e-6, 4, 11)
	nowFn := cfg.Now
	if nowFn == nil {
		nowFn = time.Now
	}
	rec := cfg.Recorder
	if rec == nil {
		if cfg.Traces != nil {
			rec = cfg.Traces
		} else {
			rec = trace.Nop
		}
	}
	var runtime *failureRuntime
	if cfg.Chaos != nil {
		runtime, err = newFailureRuntime(cfg)
		if err != nil {
			return nil, err
		}
	}
	ingest, err := newIngestStats()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	var advancer core.WindowAdvancer
	if cfg.Rolling {
		// The dual prices follow the window when the scheduler supports it;
		// stateless schedulers (baselines) have nothing to age.
		advancer, _ = cfg.Scheduler.(core.WindowAdvancer)
	}
	e := &Engine{
		cfg:      cfg,
		network:  cfg.Network,
		horizon:  cfg.Horizon,
		workers:  workers,
		now:      nowFn,
		rolling:  cfg.Rolling,
		advancer: advancer,
		sched:    cfg.Scheduler,
		rec:      rec,
		traces:   cfg.Traces,
		chaos:    runtime != nil,
		runtime:  runtime,
		ingest:   ingest,
		ledger:   ledger,
		reader:   ledger.NewReader(),
		pool:     timeslot.NewPool(ledger),
		slot:     1,
		queueCap: queueSize,
		sem:      make(chan int, workers),
		quit:     make(chan struct{}),
	}
	e.slotNow.Store(1)
	if lic, ok := cfg.Scheduler.(core.ViolationLicensee); ok {
		e.allowViolations = lic.AllowsViolations()
	}
	for i := 0; i < workers; i++ {
		h, err := metrics.NewHistogram(latencyBounds...)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		e.shards = append(e.shards, &shardHist{h: h})
		e.views = append(e.views, ledger.NewReader())
		e.sem <- i
	}
	if cfg.SlotDuration > 0 {
		e.wg.Add(1)
		go e.runClock(cfg.SlotDuration)
	}
	return e, nil
}

// Workers returns the number of worker tokens the engine settled on: the
// configured count, or 1 for a scheduler without concurrent proposals.
func (e *Engine) Workers() int { return e.workers }

// enter is SubmitBatch's admission gate in front of decide: it admits n
// submissions against the backpressure bound — at most queueCap may wait
// for a token beyond the workers deciding — and returns the worker token
// they decide under. A refusal is counted n times under its reason; a
// success must be paired with leave.
func (e *Engine) enter(ctx context.Context, n int) (int, error) {
	if int(e.waiting.Add(int64(n))) > e.queueCap+e.workers {
		e.waiting.Add(int64(-n))
		e.rejections[rejQueueFull].Add(uint64(n))
		return 0, errQueueFull
	}
	// Registering in inflight before checking closedFlag closes the race
	// with Shutdown: either this increment is visible to the drain loop
	// (which then waits the decision out), or closedFlag's store is visible
	// here and the submission bails.
	e.inflight.Add(1)
	reason, err := rejCanceled, ctx.Err()
	switch {
	case e.closedFlag.Load():
		reason, err = rejClosed, ErrClosed
	case err == nil:
		// Fast path first: a non-blocking receive skips the generic select
		// machinery whenever a token is free, which is the common case (a
		// token is held only for the duration of one call's decisions).
		select {
		case token := <-e.sem:
			return token, nil
		default:
		}
		select {
		case token := <-e.sem:
			return token, nil
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	e.inflight.Add(-1)
	e.waiting.Add(int64(-n))
	e.rejections[reason].Add(uint64(n))
	return 0, err
}

// leave returns what enter took, and counts the view's loads once per
// call. SubmitBatch defers it, so a panicking decision does not keep its
// token.
func (e *Engine) leave(token, n int) {
	view := e.views[token]
	loads, misses := view.TakeLoads()
	refreshes := view.TakeRefreshes()
	e.viewLoads.Add(loads)
	e.viewRefreshes.Add(refreshes)
	e.viewCopies.Add(misses - refreshes)
	e.sem <- token
	e.inflight.Add(-1)
	e.waiting.Add(int64(-n))
}

// checkScheme gates a submission's optional scheme pin: parse failures
// reject as invalid, a pin naming a scheme other than the scheduler's
// rejects as scheme-unavailable.
func (e *Engine) checkScheme(ar AdmissionRequest) (rejection, bool) {
	if ar.Scheme == "" {
		return 0, true
	}
	s, err := core.ParseScheme(ar.Scheme)
	if err != nil {
		return rejInvalid, false
	}
	if s != e.sched.Scheme() {
		return rejSchemeUnavailable, false
	}
	return 0, true
}

// buildRequest materializes the core.Request under the given ID,
// defaulting the arrival to the given slot.
func (e *Engine) buildRequest(ar AdmissionRequest, id, slot int) core.Request {
	arrival := ar.Arrival
	if arrival == 0 {
		arrival = slot
	}
	return core.Request{
		ID:          id,
		VNF:         ar.VNF,
		Reliability: ar.Reliability,
		Arrival:     arrival,
		Duration:    ar.Duration,
		Payment:     ar.Payment,
	}
}

// recordOutcome emits the engine-level finalization record for one decided
// request: the outcome reason, the decision slot, and (for admissions) the
// placement footprint. Merged by the trace store with the scheduler's own
// Propose attempts for the same request ID.
func (e *Engine) recordOutcome(req core.Request, slot int, outcome trace.Reason, p core.Placement) {
	if !e.rec.Sample(req.ID) {
		return
	}
	dt := trace.NewDecision(req, e.sched.Name(), e.sched.Scheme().String())
	dt.Slot = slot
	dt.Outcome = outcome
	if outcome == trace.ReasonAdmitted {
		dt.Admitted = true
		dt.Assignments = p.Assignments
	}
	e.rec.Record(dt)
}

// decide makes one admission decision under worker token `token`, without
// holding the engine lock across the scheduler or the ledger. The protocol:
//
//  1. load the token's view of the request's window and Propose against
//     it (the scheduler only reads its prices);
//  2. reserve the whole footprint in the concurrent ledger, which
//     arbitrates races between decisions in one critical section: every
//     cloudlet of the footprint is tested, then every one written, so no
//     other decision ever reads a footprint half booked;
//  3. on a refusal the view did not predict, abort the proposal and
//     re-propose (bounded retries) — prices and capacity have moved under
//     a competing commit; on one it did predict, reject as overbooked;
//  4. on success, Commit the scheduler state, then record the books
//     under the engine mutex.
//
// The caller's context is honored between retry attempts: a canceled
// submitter stops the loop before the next Propose (counted as
// ReasonCanceled) rather than committing work nobody waits for.
func (e *Engine) decide(ctx context.Context, token int, ar AdmissionRequest) (AdmissionResult, error) {
	slot := int(e.slotNow.Load())
	req := e.buildRequest(ar, int(e.lastID.Add(1)), slot)
	shard := e.shards[token]
	reject := func(r rejection) AdmissionResult {
		shard.rejections[r].Add(1)
		reason := rejectionReasons[r]
		e.recordOutcome(req, slot, trace.Reason(reason), core.Placement{})
		return AdmissionResult{ID: req.ID, Reason: reason, Slot: slot}
	}
	if req.Arrival < slot {
		return reject(rejStale), nil
	}
	if reason, ok := e.checkScheme(ar); !ok {
		return reject(reason), nil
	}
	// In rolling mode the admissible window follows the ledger's base; the
	// ledger re-checks atomically at reservation time, so a stale read
	// here can only cause a rejection or a conflict retry, never an
	// out-of-window reservation.
	maxSlot := e.ledger.MaxSlot()
	if req.End() > maxSlot {
		return reject(rejHorizon), nil
	}
	if err := e.network.ValidateRequest(req, maxSlot); err != nil {
		return reject(rejInvalid), nil
	}
	demand := e.network.Catalog[req.VNF].Demand
	view := e.views[token]
	// maxAttempts bounds the re-propose loop: the first attempt plus two
	// retries after ledger refusals. Livelock is impossible (each refusal
	// means some other decision committed) but unbounded retry under
	// shrinking capacity is wasted work — after two losses the request is
	// rejected as conflicted.
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 && ctx.Err() != nil {
			e.rejections[rejCanceled].Add(1)
			e.recordOutcome(req, slot, trace.ReasonCanceled, core.Placement{})
			return AdmissionResult{}, ctx.Err()
		}
		// Every attempt looks at a fresh cut of the window, in one ledger
		// lock round: a retry proposing against the copy that just lost the
		// race would lose it again.
		view.Load(req.Arrival, req.Duration)
		placement, ok := e.sched.Propose(req, view)
		if !ok {
			return reject(rejDeclined), nil
		}
		if placement.Validate(e.network, req) != nil {
			e.sched.Abort(req, placement)
			return reject(rejInvalid), nil
		}
		if e.reserveAll(req, placement, demand) {
			e.sched.Commit(req, placement)
			e.mu.Lock()
			e.recordAdmissionLocked(req, placement, slot)
			e.mu.Unlock()
			e.recordOutcome(req, slot, trace.ReasonAdmitted, placement)
			return AdmissionResult{ID: req.ID, Admitted: true, Slot: slot, Placement: placement}, nil
		}
		e.sched.Abort(req, placement)
		if e.overbooks(view, req, placement, demand) {
			return reject(rejOverbooked), nil
		}
		// The view had the room and the ledger did not: a concurrent commit
		// consumed the capacity the proposal saw. Re-propose against the
		// new state.
		e.conflicts.Add(1)
	}
	return reject(rejConflict), nil
}

// overbooks reports whether the placement asks a cloudlet for more than
// the view it was proposed from showed free: the scheduler ignored its
// view, so the ledger's refusal is no lost race and a retry would propose
// the same. A window a concurrent Tick has since retired reads as a race.
func (e *Engine) overbooks(view *timeslot.Reader, req core.Request, placement core.Placement, demand int) bool {
	for _, a := range placement.Assignments {
		if view.ResidualWindow(a.Cloudlet, req.Arrival, req.Duration) < a.Units(demand) &&
			e.ledger.WindowInRange(a.Cloudlet, req.Arrival, req.Duration) {
			return true
		}
	}
	return false
}

// reserveAll books the placement's whole footprint — the assignments plus
// any pooled shared backup — or none of it, which is the ledger's contract
// (timeslot.Pool.ReserveAll), not this caller's. Decisions and repairs
// reserve through here.
func (e *Engine) reserveAll(req core.Request, placement core.Placement, demand int) bool {
	var buf [footprintClaims]timeslot.Claim
	claims, pooled := simulate.Footprint(buf[:0], placement, demand)
	ok, err := e.pool.ReserveAll(req.Arrival, req.Duration, claims, pooled, e.allowViolations)
	return ok && err == nil
}

// footprintClaims sizes the stack buffer a footprint's claims are built in;
// a placement over more cloudlets spills to the heap.
const footprintClaims = 8

// releaseFootprint returns the record's live reservation, which runs
// [ReservedFrom, end]: the full window at admission, the remaining window
// after a mid-window repair. The engine reserved exactly that, so a failure
// here would be an engine bug.
func (e *Engine) releaseFootprint(rec *PlacementRecord) {
	var buf [footprintClaims]timeslot.Claim
	claims, pooled := simulate.Footprint(buf[:0], rec.Placement, e.network.Catalog[rec.Request.VNF].Demand)
	if err := e.pool.ReleaseAll(rec.ReservedFrom, rec.Request.End()-rec.ReservedFrom+1, claims, pooled); err != nil {
		panic(fmt.Sprintf("serve: release placement %d: %v", rec.ID, err))
	}
}

// recordAdmissionLocked books one admitted placement. Caller holds e.mu.
func (e *Engine) recordAdmissionLocked(req core.Request, placement core.Placement, slot int) {
	e.book.admit(req, placement, slot)
	e.admitted++
	e.admittedByScheme[placement.Scheme]++
	e.revenue += req.Payment
	if e.runtime != nil {
		e.watchAdmissionLocked(req, placement)
	}
}

// observe records one latency into the histogram of worker token `token`.
// The caller holds the token, so the only possible contention on the shard
// mutex is a concurrent Stats snapshot.
func (e *Engine) observe(token int, enqueued time.Time) {
	sh := e.shards[token]
	v := e.now().Sub(enqueued).Seconds()
	sh.mu.Lock()
	sh.h.Observe(v)
	sh.mu.Unlock()
}

// Tick advances the slot clock by one and releases every placement whose
// window ended — a request arriving at a with duration d holds its
// capacity through slot a+d-1 and is released the moment the clock
// reaches a+d. Tests drive this directly; the real-time clock calls it
// once per SlotDuration. With the failure runtime on a tick may repair, and
// a repair is a decision: it holds a worker token, taken before the engine
// mutex as every decision takes them.
func (e *Engine) Tick() TickReport {
	if e.chaos {
		token := <-e.sem
		defer func() { e.sem <- token }()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slot++
	e.slotNow.Store(int64(e.slot))
	expired := e.book.expire(e.slot)
	for _, rec := range expired {
		// expire yields each record once, so a record leaves the live set
		// exactly when its footprint is released.
		e.releaseFootprint(rec)
		e.expired++
		if e.runtime != nil {
			e.finalizeExpiredLocked(rec)
		}
		// The history keeps the placement — and its degraded mark, which
		// outliving the window must not erase; the record is recycled.
		e.book.retire(rec)
	}
	if e.rolling {
		e.advanceWindowLocked()
	}
	if e.runtime != nil {
		e.runtimeTickLocked()
	}
	return TickReport{Slot: e.slot, Expired: len(expired)}
}

// advanceWindowLocked moves the rolling window's base towards the clock.
// The ledger goes as far as its rows have drained — a footprint still
// holding units, a straggler's too, stays addressable until it releases —
// and the scheduler's dual window follows it to the same base. Caller
// holds e.mu.
func (e *Engine) advanceWindowLocked() {
	before := e.ledger.Base()
	if err := e.ledger.Advance(e.slot); err != nil {
		panic(fmt.Sprintf("serve: advance window to %d: %v", e.slot, err))
	}
	if base := e.ledger.Base(); base > before && e.advancer != nil {
		e.advancer.AdvanceWindow(base)
	}
}

// runClock maps wall time onto slots.
func (e *Engine) runClock(d time.Duration) {
	defer e.wg.Done()
	ticker := time.NewTicker(d)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.clockTick()
		case <-e.quit:
			return
		}
	}
}

// clockTick is a Tick whose panic, logged and counted, costs the tick only.
func (e *Engine) clockTick() {
	defer func() {
		if p := recover(); p != nil {
			e.clockPanics.Add(1)
			log.Printf("serve: clock: panic in tick: %v\n%s", p, debug.Stack())
		}
	}()
	e.Tick()
}

// Slot returns the current slot.
func (e *Engine) Slot() int {
	return int(e.slotNow.Load())
}

// Horizon returns the served horizon: the fixed T, or the rolling window
// width W.
func (e *Engine) Horizon() int { return e.horizon }

// Rolling reports whether the engine serves a rolling horizon.
func (e *Engine) Rolling() bool { return e.rolling }

// WindowBase returns the first live slot of the ledger window; always 1
// in fixed mode.
func (e *Engine) WindowBase() int { return e.ledger.Base() }

// Traces returns the engine's decision-trace store; nil when tracing is
// disabled.
func (e *Engine) Traces() *trace.Store { return e.traces }

// Network returns the served network (read-only by convention).
func (e *Engine) Network() *core.Network { return e.network }

// Placement returns the record for an admitted request ID. Every ID ever
// admitted stays retrievable for the life of the engine, but for a failed
// read of the history's spill file: from the live index until its window
// ends, from the history afterwards. The returned copy's State reflects the
// current slot.
func (e *Engine) Placement(id int) (PlacementRecord, bool) {
	e.mu.Lock()
	rec, cold, ok := e.book.lookup(id, e.slot)
	e.mu.Unlock()
	if cold != nil {
		return cold()
	}
	return rec, ok
}

// CloudletStatus is one cloudlet's residual capacity over the remaining
// horizon.
type CloudletStatus struct {
	// ID, Node, Capacity and Reliability mirror the core.Cloudlet.
	ID          int     `json:"id"`
	Node        int     `json:"node"`
	Capacity    int     `json:"capacity"`
	Reliability float64 `json:"reliability"`
	// FromSlot is the absolute slot Residual[0] describes (the current
	// slot); FromOffset is the same position relative to WindowBase.
	FromSlot   int `json:"from_slot"`
	FromOffset int `json:"from_offset"`
	// WindowBase is the first live slot of the ledger window (always 1 in
	// fixed mode); absolute slot s maps to window offset s - WindowBase.
	WindowBase int `json:"window_base"`
	// Residual holds the free units per slot from FromSlot through the end
	// of the live window; empty once the clock has passed a fixed horizon.
	// Entries can be negative when violations are allowed.
	Residual []int `json:"residual"`
}

// Cloudlets reports residual capacity per slot for every cloudlet, from
// the current slot through the horizon.
func (e *Engine) Cloudlets() []CloudletStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	base := e.ledger.Base()
	maxSlot := base + e.horizon - 1
	// One cut of the remaining window answers the whole table.
	e.reader.Load(e.slot, maxSlot-e.slot+1)
	out := make([]CloudletStatus, len(e.network.Cloudlets))
	for j, cl := range e.network.Cloudlets {
		st := CloudletStatus{
			ID: cl.ID, Node: cl.Node, Capacity: cl.Capacity, Reliability: cl.Reliability,
			FromSlot: e.slot, FromOffset: e.slot - base, WindowBase: base,
		}
		for t := e.slot; t <= maxSlot; t++ {
			st.Residual = append(st.Residual, e.reader.Residual(j, t))
		}
		out[j] = st
	}
	return out
}

// Stats snapshots every counter under one lock acquisition.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		Slot:             e.slot,
		Horizon:          e.horizon,
		WindowBase:       e.ledger.Base(),
		Rolling:          e.rolling,
		Workers:          e.workers,
		QueueCapacity:    e.queueCap,
		Admitted:         e.admitted,
		Expired:          e.expired,
		AdmittedByScheme: make(map[string]uint64),
		Rejections:       make(map[string]uint64, numRejections),
		ConflictRetries:  e.conflicts.Load(),
		// Copies, refreshes, loads: leave adds them in the reverse order,
		// so refreshes + copies ≤ loads here too.
		ViewCopies:       e.viewCopies.Load(),
		ViewRefreshes:    e.viewRefreshes.Load(),
		ViewLoads:        e.viewLoads.Load(),
		Revenue:          e.revenue,
		ActivePlacements: e.book.active,
		BackupGroups:     e.pool.Groups(),
		FiledPlacements:  e.book.filed,
		BookBytes:        e.book.bytes(),
		SpilledBytes:     e.book.spilled,
		SpillErrors:      int(e.book.spillErrors.Load()),
		LateIDs:          len(e.book.late),
		CloudletUsed:     make([]int, len(e.network.Cloudlets)),
		CloudletCapacity: make([]int, len(e.network.Cloudlets)),
		QueueDepth:       int(e.waiting.Load()),
		// The semaphore is preloaded with tokens; a missing token is a
		// decision in flight.
		InFlight: e.workers - len(e.sem),
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		if s.Latency == nil {
			s.Latency = sh.h.Clone()
		} else {
			// Merge cannot fail: the shard histograms share their bounds.
			_ = s.Latency.Merge(sh.h)
		}
		sh.mu.Unlock()
	}
	for scheme, n := range e.admittedByScheme {
		if n > 0 {
			s.AdmittedByScheme[core.Scheme(scheme).String()] = n
		}
	}
	for r, reason := range rejectionReasons {
		n := e.rejections[r].Load()
		for _, sh := range e.shards {
			n += sh.rejections[r].Load()
		}
		s.Rejections[reason] = n
	}
	live := e.slot <= e.ledger.MaxSlot()
	e.reader.Load(e.slot, 1)
	for j, cl := range e.network.Cloudlets {
		s.CloudletCapacity[j] = cl.Capacity
		if live {
			s.CloudletUsed[j] = cl.Capacity - e.reader.Residual(j, e.slot)
		}
	}
	return s
}

// Shutdown stops intake, waits for every submission past the gate to get
// its decision and for the clock to stop, or for the context to expire. It
// is idempotent.
func (e *Engine) Shutdown(ctx context.Context) error {
	if !e.closedFlag.CompareAndSwap(false, true) {
		return nil
	}
	close(e.quit)
	done := make(chan struct{})
	go func() {
		// Submissions registered in inflight before they observed
		// closedFlag; poll until the last one finished. Shutdown is cold,
		// so a short sleep loop beats putting a WaitGroup (and the mutex
		// it would need against the closed check) on the hot path.
		for e.inflight.Load() != 0 {
			time.Sleep(200 * time.Microsecond)
		}
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// Closed reports whether Shutdown has begun.
func (e *Engine) Closed() bool {
	return e.closedFlag.Load()
}
