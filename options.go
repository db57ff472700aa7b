package revnf

import (
	"errors"
	"fmt"
	"math/rand"

	"revnf/internal/baseline"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/shared"
	"revnf/internal/trace"
)

// ErrBadScheduler reports an invalid NewScheduler configuration: an
// unknown algorithm, an algorithm unavailable under the requested scheme,
// or a missing required option.
var ErrBadScheduler = errors.New("revnf: invalid scheduler configuration")

// Algorithm selects which admission algorithm NewScheduler builds. The
// values match the revnfd -algorithm flag.
type Algorithm string

// Available algorithms.
const (
	// PrimalDual is the paper's primal-dual algorithm in its evaluated
	// form: Algorithm 1 with capacity enforcement under OnSite, Algorithm 2
	// under OffSite. Requires WithHorizon.
	PrimalDual Algorithm = "pd"
	// RawPrimalDual is the theory-faithful Algorithm 1 (OnSite only): it
	// achieves the (1+a_max) competitive ratio but may overcommit cloudlets
	// within the bound of Lemma 8. The scheduler carries that licence
	// itself (core.ViolationLicensee), so Run and the serve engine record
	// its overcommitment rather than refuse it. Requires WithHorizon.
	RawPrimalDual Algorithm = "raw"
	// Greedy is the paper's comparison baseline: most reliable cloudlets
	// first, no opportunity-cost reasoning. Available under both schemes.
	Greedy Algorithm = "greedy"
	// FirstFit places each request in the lowest-ID feasible cloudlet
	// (OnSite only).
	FirstFit Algorithm = "firstfit"
	// Random places each request in a uniformly random feasible cloudlet
	// (OnSite only). Requires WithRNG for reproducibility.
	Random Algorithm = "random"
)

// Decision-trace types re-exported from internal/trace, so callers can
// inject recorders and read traces without importing internal packages.
type (
	// Recorder is the pluggable sink decision traces flow into; see
	// WithRecorder. Implementations must be safe for concurrent use.
	Recorder = trace.Recorder
	// DecisionTrace is the structured record of one request's admission
	// decision: candidates, dual costs, attempts, outcome.
	DecisionTrace = trace.DecisionTrace
	// ProposeTrace is one Propose evaluation within a DecisionTrace.
	ProposeTrace = trace.ProposeTrace
	// TraceCandidate is one cloudlet's evaluation within a ProposeTrace.
	TraceCandidate = trace.Candidate
	// TraceReason is the machine-readable decision/error code vocabulary.
	TraceReason = trace.Reason
	// TraceStore is the bounded ring-buffer store of recent traces.
	TraceStore = trace.Store
)

// NopRecorder drops everything; it is the default when no recorder is
// injected and costs one interface call per decision.
var NopRecorder = trace.Nop

// NewTraceStore returns a bounded ring-buffer trace store holding the most
// recent `capacity` traced decisions. The store implements Recorder.
func NewTraceStore(capacity int) *TraceStore { return trace.NewStore(capacity) }

// NewSamplingRecorder wraps a recorder so only one in `every` requests is
// traced, deterministically by request ID. every ≤ 1 returns inner
// unchanged.
func NewSamplingRecorder(inner Recorder, every int) Recorder {
	return trace.NewSampling(inner, every)
}

// schedulerConfig accumulates NewScheduler options.
type schedulerConfig struct {
	algorithm Algorithm
	horizon   int
	poolSize  int
	rec       trace.Recorder
	rng       *rand.Rand
}

// SchedulerOption configures NewScheduler.
type SchedulerOption func(*schedulerConfig)

// WithAlgorithm selects the admission algorithm (default PrimalDual).
func WithAlgorithm(a Algorithm) SchedulerOption {
	return func(c *schedulerConfig) { c.algorithm = a }
}

// WithHorizon sets the time horizon T in slots. The primal-dual algorithms
// size their dual-price tables by it and reject requests whose windows
// extend past it; the baselines ignore it.
func WithHorizon(h int) SchedulerOption {
	return func(c *schedulerConfig) { c.horizon = h }
}

// WithRecorder injects a decision-trace sink: every Propose records its
// candidate evaluations and verdict into it. Tracing never changes
// decisions; a nil recorder keeps the no-op default.
func WithRecorder(r Recorder) SchedulerOption {
	return func(c *schedulerConfig) { c.rec = r }
}

// WithRNG injects the random source the Random algorithm draws from; other
// algorithms ignore it. An explicit source keeps runs reproducible.
func WithRNG(rng *rand.Rand) SchedulerOption {
	return func(c *schedulerConfig) { c.rng = rng }
}

// WithSharedPoolSize sets the backup pool capacity k for the Shared
// scheme: up to k concurrently active requests share one pooled backup
// instance, and every admission is validated against the correlated-
// failure availability at full pool capacity. Other schemes ignore it.
// The default is core's DefaultSharedPoolSize.
func WithSharedPoolSize(k int) SchedulerOption {
	return func(c *schedulerConfig) { c.poolSize = k }
}

// NewScheduler builds an admission scheduler for the scheme from
// functional options:
//
//	sched, err := revnf.NewScheduler(inst.Network, revnf.OnSite,
//		revnf.WithHorizon(inst.Horizon),
//		revnf.WithRecorder(store))
//
// The default algorithm is PrimalDual (the paper's evaluated form).
func NewScheduler(n *Network, scheme Scheme, opts ...SchedulerOption) (Scheduler, error) {
	cfg := schedulerConfig{algorithm: PrimalDual}
	for _, opt := range opts {
		opt(&cfg)
	}
	switch scheme {
	case OnSite:
		return newOnsiteScheduler(n, cfg)
	case OffSite:
		return newOffsiteScheduler(n, cfg)
	case Shared:
		return newSharedScheduler(n, cfg)
	default:
		return nil, fmt.Errorf("%w: unknown scheme %d", ErrBadScheduler, int(scheme))
	}
}

func newOnsiteScheduler(n *Network, cfg schedulerConfig) (Scheduler, error) {
	switch cfg.algorithm {
	case PrimalDual:
		if cfg.horizon < 1 {
			return nil, fmt.Errorf("%w: algorithm %q needs WithHorizon", ErrBadScheduler, cfg.algorithm)
		}
		return onsite.NewScheduler(n, cfg.horizon,
			onsite.WithCapacityEnforcement(), onsite.WithRecorder(cfg.rec))
	case RawPrimalDual:
		if cfg.horizon < 1 {
			return nil, fmt.Errorf("%w: algorithm %q needs WithHorizon", ErrBadScheduler, cfg.algorithm)
		}
		return onsite.NewScheduler(n, cfg.horizon, onsite.WithRecorder(cfg.rec))
	case Greedy:
		return baseline.NewGreedyOnsite(n, baseline.WithRecorder(cfg.rec))
	case FirstFit:
		return baseline.NewFirstFitOnsite(n, baseline.WithRecorder(cfg.rec))
	case Random:
		if cfg.rng == nil {
			return nil, fmt.Errorf("%w: algorithm %q needs WithRNG", ErrBadScheduler, cfg.algorithm)
		}
		return baseline.NewRandomOnsite(n, cfg.rng, baseline.WithRecorder(cfg.rec))
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrBadScheduler, cfg.algorithm)
	}
}

func newOffsiteScheduler(n *Network, cfg schedulerConfig) (Scheduler, error) {
	switch cfg.algorithm {
	case PrimalDual:
		if cfg.horizon < 1 {
			return nil, fmt.Errorf("%w: algorithm %q needs WithHorizon", ErrBadScheduler, cfg.algorithm)
		}
		return offsite.NewScheduler(n, cfg.horizon, offsite.WithRecorder(cfg.rec))
	case Greedy:
		return baseline.NewGreedyOffsite(n, baseline.WithRecorder(cfg.rec))
	case RawPrimalDual, FirstFit, Random:
		return nil, fmt.Errorf("%w: algorithm %q not available under the off-site scheme", ErrBadScheduler, cfg.algorithm)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrBadScheduler, cfg.algorithm)
	}
}

func newSharedScheduler(n *Network, cfg schedulerConfig) (Scheduler, error) {
	switch cfg.algorithm {
	case PrimalDual:
		if cfg.horizon < 1 {
			return nil, fmt.Errorf("%w: algorithm %q needs WithHorizon", ErrBadScheduler, cfg.algorithm)
		}
		opts := []shared.Option{shared.WithRecorder(cfg.rec)}
		if cfg.poolSize != 0 {
			opts = append(opts, shared.WithPoolSize(cfg.poolSize))
		}
		s, err := shared.NewScheduler(n, cfg.horizon, opts...)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadScheduler, err)
		}
		return s, nil
	case RawPrimalDual, Greedy, FirstFit, Random:
		return nil, fmt.Errorf("%w: algorithm %q not available under the shared scheme", ErrBadScheduler, cfg.algorithm)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrBadScheduler, cfg.algorithm)
	}
}

// Valid reports whether a names a known algorithm.
func (a Algorithm) Valid() bool {
	switch a {
	case PrimalDual, RawPrimalDual, Greedy, FirstFit, Random:
		return true
	}
	return false
}
