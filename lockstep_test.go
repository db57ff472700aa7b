package revnf_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"revnf"
	"revnf/internal/baseline"
	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/shared"
	"revnf/internal/simulate"
)

// stepper is the Propose of one copy in TestProposeIsPure: with rng set it
// proposes 1–3 extra times, against the same view, before the proposal
// that counts; with lambda set it records λ as each step left it.
type stepper[R, P any] struct {
	rng                *rand.Rand
	lambda             core.LambdaReader
	cloudlets, horizon int
	lambdas            []uint64
}

func (s *stepper[R, P]) propose(propose func(R, core.CapacityView) (P, bool), req R, view core.CapacityView) (P, bool) {
	s.mark()
	if s.rng != nil {
		for n := 1 + s.rng.Intn(3); n > 0; n-- {
			propose(req, view)
		}
	}
	return propose(req, view)
}

// mark appends a hash of every λ bit pattern.
func (s *stepper[R, P]) mark() {
	if s.lambda == nil {
		return
	}
	h := uint64(14695981039346656037)
	for j := 0; j < s.cloudlets; j++ {
		for t := 0; t <= s.horizon; t++ {
			h = (h ^ math.Float64bits(s.lambda.Lambda(j, t))) * 1099511628211
		}
	}
	s.lambdas = append(s.lambdas, h)
}

// proposeCopy is one copy of a scheduler in TestProposeIsPure, its
// Propose made by step.
type proposeCopy[R, P any] struct {
	core.TwoPhase[R, P]
	step stepper[R, P]
}

func (c *proposeCopy[R, P]) Propose(req R, view core.CapacityView) (P, bool) {
	return c.step.propose(c.TwoPhase.Propose, req, view)
}

// AllowsViolations forwards the copied scheduler's violation licence, so
// the raw Algorithm 1 may overbook in its copies as it does alone.
func (c *proposeCopy[R, P]) AllowsViolations() bool {
	lic, ok := c.TwoPhase.(core.ViolationLicensee)
	return ok && lic.AllowsViolations()
}

// TestProposeIsPure holds the two-phase contract's "Propose mutates no
// scheduler state" as a property: two copies of each scheduler, each with
// its own ledger and no recorder, run one seeded trace, and before every
// decision one copy proposes 1–3 extra times. Every step must make the
// same decision with the same placement, and leave λ (where the scheduler
// exposes it) the same bit for bit. random-onsite is left out by its
// contract: its generator's draws are the one state Propose may change.
func TestProposeIsPure(t *testing.T) {
	inst, err := revnf.NewInstance(revnf.DefaultInstanceConfig(300), 5)
	if err != nil {
		t.Fatal(err)
	}
	n, h := inst.Network, inst.Horizon
	for _, c := range []struct {
		name  string
		build func() (core.Scheduler, error)
	}{
		{"pd-onsite-raw", func() (core.Scheduler, error) { return onsite.NewScheduler(n, h) }},
		{"pd-onsite", func() (core.Scheduler, error) {
			return onsite.NewScheduler(n, h, onsite.WithCapacityEnforcement())
		}},
		{"pd-offsite", func() (core.Scheduler, error) { return offsite.NewScheduler(n, h) }},
		{"pd-shared-k1", func() (core.Scheduler, error) { return shared.NewScheduler(n, h, shared.WithPoolSize(1)) }},
		{"pd-shared-k2", func() (core.Scheduler, error) { return shared.NewScheduler(n, h, shared.WithPoolSize(2)) }},
		{"pd-shared-k3", func() (core.Scheduler, error) { return shared.NewScheduler(n, h, shared.WithPoolSize(3)) }},
		{"greedy-onsite", func() (core.Scheduler, error) { return baseline.NewGreedyOnsite(n) }},
		{"greedy-offsite", func() (core.Scheduler, error) { return baseline.NewGreedyOffsite(n) }},
		{"firstfit-onsite", func() (core.Scheduler, error) { return baseline.NewFirstFitOnsite(n) }},
		{"reject-all", func() (core.Scheduler, error) { return baseline.NewRejectAll(core.OnSite) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(rng *rand.Rand) ([]simulate.Decision[core.Placement], []uint64) {
				s, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				cp := newCopy(s, rng, len(n.Cloudlets), h)
				res, err := simulate.Run(inst, cp)
				if err != nil {
					t.Fatal(err)
				}
				cp.step.mark()
				return res.Decisions, cp.step.lambdas
			}
			sameSteps(t, run, rand.New(rand.NewSource(1)))
		})
	}

	trace, err := chain.GenerateTrace(chain.TraceConfig{
		Requests: 200, Horizon: h, MinLength: 1, MaxLength: 3, MinDuration: 1, MaxDuration: 8,
		MinRequirement: 0.85, MaxRequirement: 0.93, MaxPaymentRate: 10, H: 6,
	}, n.Catalog, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	chains := &chain.Instance{Network: n, Horizon: h, Trace: trace}
	for name, build := range map[string]func() (revnf.ChainScheduler, error){
		"pd-chain-onsite":      func() (revnf.ChainScheduler, error) { return chain.NewOnsiteScheduler(n, h) },
		"pd-chain-offsite":     func() (revnf.ChainScheduler, error) { return chain.NewOffsiteScheduler(n, h) },
		"greedy-chain-onsite":  func() (revnf.ChainScheduler, error) { return chain.NewGreedyOnsite(n, h) },
		"greedy-chain-offsite": func() (revnf.ChainScheduler, error) { return chain.NewGreedyOffsite(n, h) },
	} {
		t.Run(name, func(t *testing.T) {
			run := func(rng *rand.Rand) ([]simulate.Decision[chain.Placement], []uint64) {
				s, err := build()
				if err != nil {
					t.Fatal(err)
				}
				cp := newCopy(s, rng, len(n.Cloudlets), h)
				res, err := simulate.RunChains(chains, cp)
				if err != nil {
					t.Fatal(err)
				}
				cp.step.mark()
				return res.Decisions, cp.step.lambdas
			}
			sameSteps(t, run, rand.New(rand.NewSource(1)))
		})
	}
}

// newCopy wraps s for one run; λ is marked when s exposes it.
func newCopy[R, P any](s core.TwoPhase[R, P], rng *rand.Rand, cloudlets, horizon int) *proposeCopy[R, P] {
	lambda, _ := s.(core.LambdaReader)
	return &proposeCopy[R, P]{TwoPhase: s, step: stepper[R, P]{rng: rng, lambda: lambda, cloudlets: cloudlets, horizon: horizon}}
}

// sameSteps runs the copy that proposes once and the one that proposes
// extra, and requires the same decisions and the same λ after every step.
func sameSteps[D any](t *testing.T, run func(*rand.Rand) ([]D, []uint64), rng *rand.Rand) {
	t.Helper()
	once, onceLam := run(nil)
	extra, extraLam := run(rng)
	if len(once) != len(extra) || len(onceLam) != len(extraLam) {
		t.Fatalf("%d decisions and %d λ marks against %d and %d", len(once), len(onceLam), len(extra), len(extraLam))
	}
	for i := range once {
		if !reflect.DeepEqual(once[i], extra[i]) {
			t.Fatalf("request %d: decided %+v, after extra proposals %+v", i, once[i], extra[i])
		}
	}
	for i := range onceLam {
		if onceLam[i] != extraLam[i] {
			t.Fatalf("λ differs after %d requests: the extra proposals changed it", i)
		}
	}
}
