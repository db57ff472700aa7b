package core

// CapacityView exposes the authoritative resource state to online
// schedulers. The engine (batch simulator or admission daemon) owns the
// underlying ledger; schedulers query residual capacity through this
// interface and return placements, and the engine performs the actual
// reservation. Raw Algorithm 1 ignores the view (its capacity violations
// are part of the analysis); every other scheduler uses it to stay
// feasible. A view is either safe for concurrent reads (the
// timeslot.Ledger is) or handed to one Propose at a time (a
// timeslot.Reader, the serving path's copy of the request's window, is);
// either way a read is a hint that the arbitrating reservation re-checks
// atomically.
type CapacityView interface {
	// Capacity returns cap_j for cloudlet j.
	Capacity(cloudlet int) int
	// Residual returns the free computing units of cloudlet j at slot t.
	Residual(cloudlet, slot int) int
	// ResidualWindow returns the minimum residual capacity of cloudlet j
	// over slots [start, start+duration-1].
	ResidualWindow(cloudlet, start, duration int) int
}

// TwoPhase is an online admission algorithm for requests of type R with
// placements of type P: core's Request and Placement for a single VNF
// (Scheduler), internal/chain's for a service function chain. It splits
// the admission decision into a side-effect-free Propose and a
// state-mutating Commit/Abort, so that capacity arbitration can live in
// the ledger instead of in the scheduler:
//
//	p, ok := s.Propose(req, view)   // pure: reads prices, reads view
//	... engine reserves p's footprint atomically in the ledger ...
//	s.Commit(req, p)                // applies dual/heuristic state updates
//
// Proposals are made in arrival order and must not assume knowledge of
// future requests. The batch simulator (internal/simulate) drives every
// scheduler through this protocol one request at a time; the admission
// daemon (internal/serve) drives it concurrently when the scheduler
// allows it. Decide is the protocol's serialized form.
//
// Concurrency rule: Propose must not mutate scheduler state observable by
// other calls; when ConcurrentPropose reports true, any number of Propose
// calls may run concurrently with each other and with at most one
// Commit/Abort sequence consumer. Commit calls are serialized by the
// scheduler itself (internally locked); the sequence of Commit calls is
// the scheduler's state history. For the primal-dual algorithms this keeps
// the λ updates of Eqs. (34)/(67) sequentially consistent in Commit order
// — exactly the per-request update order the competitive analysis assumes
// — while Propose reads a recent price snapshot under a read lock. Name
// and Scheme must be safe to call concurrently with everything; they are
// expected to return constants.
//
// Which schedulers support concurrent Propose:
//
//   - greedy, first-fit, reject-all: trivially — Propose is a pure
//     function of (req, view) and Commit is a no-op;
//   - random: no — its only mutable state is the RNG, which Propose
//     guards with a dedicated mutex, but the draw order, and hence the
//     chosen cloudlet, would depend on interleaving; it reports false so
//     that a seed reproduces a trace;
//   - on-site and off-site primal-dual (and their chain variants): yes —
//     λ is guarded by a reader/writer lock; Propose takes the read side,
//     Commit the write side;
//   - shared primal-dual: no — a proposal carries a tentative group ID
//     whose uniqueness needs the Propose→Commit pairs serialized.
//
// Abort releases nothing by default (no scheduler here acquires state in
// Propose, and a footprint the ledger refused was never partly booked:
// timeslot's ReserveAll writes all of it or none) but is part of the
// contract so engines can pair every Propose with exactly one Commit or
// Abort.
//
// Observability carve-out: emitting a decision trace from Propose into an
// injected trace.Recorder is NOT state mutation under this contract.
// Traces never feed back into any admission decision, so recording keeps
// Propose semantically pure. TestProposeIsPure (lockstep_test.go) holds
// every scheduler but random to the rule: extra proposals before each
// decision change no decision and no λ bit. Recorder
// implementations must be safe for concurrent use so concurrent proposals
// may emit without coordination.
type TwoPhase[R, P any] interface {
	// Name identifies the algorithm in metrics and experiment tables.
	Name() string
	// Scheme returns the redundancy scheme the scheduler operates under.
	Scheme() Scheme
	// Propose computes the placement the scheduler would admit for req
	// given the capacity view, without mutating scheduler state. It
	// returns false to reject (priced out or infeasible).
	Propose(req R, view CapacityView) (P, bool)
	// Commit applies the scheduler's internal state update for a proposal
	// the engine decided to admit. It must be called at most once per
	// Propose, after the engine has secured the placement's capacity.
	Commit(req R, p P)
	// Abort discards a proposal the engine could not admit (for example
	// when the ledger refused the footprint after a concurrent commit
	// consumed the capacity; the refusal booked nothing). It must leave
	// scheduler state exactly as if the Propose had never happened.
	Abort(req R, p P)
	// ConcurrentPropose reports whether Propose may be invoked
	// concurrently. Engines must treat false as "serialize everything":
	// one Propose→Commit/Abort pair at a time (internal/serve decides with
	// one worker token).
	ConcurrentPropose() bool
}

// Scheduler is the two-phase contract for single-VNF requests, the one the
// batch simulator, the admission daemon and the public API take.
type Scheduler = TwoPhase[Request, Placement]

// TwoPhaseScheduler is a Scheduler that also offers Decide, the
// serialized form of the protocol, as a method. Only the three
// primal-dual schedulers implement it, and only TestGoldenDecide calls it:
// the benchmark's timing decorator forwards Decide, so the method stays
// until that decorator drops it. New code takes a Scheduler and calls
// core.Decide.
type TwoPhaseScheduler interface {
	Scheduler
	// Decide is Decide(s, req, view) for this scheduler.
	Decide(req Request, view CapacityView) (Placement, bool)
}

// LambdaReader is implemented by the primal-dual schedulers (Algorithm 1
// on-site, Algorithm 2 off-site, and their shared and chain variants),
// exposing the current dual price λ_{tj} for observability: the serve
// layer exports λ summary gauges. Lambda must be safe to call concurrently
// with Propose/Commit and must return 0 for out-of-range indices.
type LambdaReader interface {
	// Lambda returns the dual price λ_{tj} for (slot t, cloudlet j).
	Lambda(cloudlet, slot int) float64
}

// WindowAdvancer is implemented by schedulers whose per-slot state (the
// dual prices λ_{tj}) can follow a rolling ledger window. AdvanceWindow
// moves the scheduler's live window so it starts at base: state for
// retired slots (slots below base) is re-initialized — the slot entering
// at the far edge of the window starts at the same initial price a fresh
// horizon would give it, rather than inheriting the retired slot's
// accumulated value — and state for slots still inside the window is left
// untouched. Calls with base at or behind the current window start are
// no-ops, so the engine may call it unconditionally each tick.
//
// AdvanceWindow must be safe to call concurrently with Propose/Commit
// (the primal-dual schedulers take the λ write lock). Engines advance the
// scheduler to the base the ledger's own Advance reached, so the two
// window positions never disagree by more than the in-flight tick.
type WindowAdvancer interface {
	// AdvanceWindow moves the live window so it starts at base.
	AdvanceWindow(base int)
}

// ViolationLicensee is implemented by schedulers that may propose a
// placement the ledger cannot hold: the raw Algorithm 1, whose Lemma 8
// bounds its capacity violation without preventing it. Drivers
// force-reserve such a scheduler's placements, recording the
// overcommitment, when AllowsViolations is true; for every other
// scheduler an overbooked placement is refused.
type ViolationLicensee interface {
	AllowsViolations() bool
}

// Decide is the serialized form of the two-phase protocol: Propose
// immediately followed by Commit. Like any serialized call it is not safe
// for concurrent use.
func Decide[R, P any](s TwoPhase[R, P], req R, view CapacityView) (P, bool) {
	p, ok := s.Propose(req, view)
	if !ok {
		var zero P
		return zero, false
	}
	s.Commit(req, p)
	return p, true
}

// Stateless is embedded by schedulers whose Propose is a pure function of
// the request and the capacity view: with no state to update or release,
// Commit and Abort are no-ops and proposals may run concurrently.
type Stateless[R, P any] struct{}

// Commit implements TwoPhase.
func (Stateless[R, P]) Commit(R, P) {}

// Abort implements TwoPhase.
func (Stateless[R, P]) Abort(R, P) {}

// ConcurrentPropose implements TwoPhase.
func (Stateless[R, P]) ConcurrentPropose() bool { return true }
