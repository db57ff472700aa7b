package chain_test

import (
	"errors"
	"math/rand"
	"testing"

	"revnf/internal/chain"
	"revnf/internal/core"
	"revnf/internal/simulate"
)

// scheduler is the contract the chain schedulers implement.
type scheduler = core.TwoPhase[chain.Request, chain.Placement]

func TestRunAllChainSchedulers(t *testing.T) {
	inst := chain.SmallInstance(t)
	builds := []func() (scheduler, error){
		func() (scheduler, error) { return chain.NewOnsiteScheduler(inst.Network, inst.Horizon) },
		func() (scheduler, error) { return chain.NewOffsiteScheduler(inst.Network, inst.Horizon) },
		func() (scheduler, error) { return chain.NewGreedyOnsite(inst.Network, inst.Horizon) },
		func() (scheduler, error) { return chain.NewGreedyOffsite(inst.Network, inst.Horizon) },
	}
	for _, build := range builds {
		sched, err := build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := simulate.RunChains(inst, sched)
		if err != nil {
			t.Fatalf("RunChains %s: %v", sched.Name(), err)
		}
		if res.Admitted+res.Rejected != len(inst.Trace) {
			t.Errorf("%s: decisions %d+%d != %d", sched.Name(), res.Admitted, res.Rejected, len(inst.Trace))
		}
		if res.Admitted == 0 {
			t.Errorf("%s admitted nothing", sched.Name())
		}
		// Revenue equals admitted payments.
		want := 0.0
		for _, d := range res.Decisions {
			if d.Admitted {
				want += inst.Trace[d.Request].Payment
			}
		}
		if !core.FloatEq(res.Revenue, want) {
			t.Errorf("%s: revenue %v != %v", sched.Name(), res.Revenue, want)
		}
		if rate := res.AdmissionRate(); rate <= 0 || rate > 1 {
			t.Errorf("%s: admission rate %v", sched.Name(), rate)
		}
	}
}

func TestRunErrors(t *testing.T) {
	inst := chain.SmallInstance(t)
	if _, err := simulate.RunChains(inst, nil); !errors.Is(err, simulate.ErrBadScheduler) {
		t.Errorf("nil scheduler err = %v", err)
	}
	if _, err := simulate.RunChains(nil, &chain.OnsiteScheduler{}); !errors.Is(err, chain.ErrBadInstance) {
		t.Errorf("nil instance err = %v", err)
	}
	broken := chain.SmallInstance(t)
	broken.Trace[3].ID = 99
	if _, err := simulate.RunChains(broken, &chain.OnsiteScheduler{}); !errors.Is(err, chain.ErrBadInstance) || !errors.Is(err, simulate.ErrBadInstance) {
		t.Errorf("bad trace err = %v", err)
	}
}

func TestRunRejectsInvalidPlacement(t *testing.T) {
	inst := chain.SmallInstance(t)
	if _, err := simulate.RunChains(inst, badChainScheduler{}); !errors.Is(err, core.ErrBelowRequirement) &&
		!errors.Is(err, chain.ErrBadPlacement) {
		t.Errorf("bad scheduler err = %v", err)
	}
}

// badChainScheduler puts every stage of every chain in cloudlet 0 with one
// instance, whatever the requirement.
type badChainScheduler struct {
	core.Stateless[chain.Request, chain.Placement]
}

func (badChainScheduler) Name() string        { return "bad" }
func (badChainScheduler) Scheme() core.Scheme { return core.OnSite }
func (badChainScheduler) Propose(req chain.Request, _ core.CapacityView) (chain.Placement, bool) {
	stages := make([]chain.StagePlacement, len(req.VNFs))
	for k, f := range req.VNFs {
		stages[k] = chain.StagePlacement{VNF: f, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}}}
	}
	return chain.Placement{Request: req.ID, Scheme: core.OnSite, Stages: stages}, true
}

func TestResultAdmissionRateEmpty(t *testing.T) {
	r := &simulate.Result[chain.Placement]{}
	if r.AdmissionRate() != 0 {
		t.Errorf("empty AdmissionRate = %v", r.AdmissionRate())
	}
}

// Integration property: over many seeds, every admitted chain placement
// meets its requirement (revalidated independently) and capacity is never
// violated (RunChains errors otherwise).
func TestChainSchedulersInvariantProperty(t *testing.T) {
	n := chain.SmallNetwork()
	for seed := int64(1); seed <= 10; seed++ {
		trace, err := chain.GenerateTrace(chain.SmallTraceConfig(), n.Catalog, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("GenerateTrace: %v", err)
		}
		inst := &chain.Instance{Network: n, Horizon: 20, Trace: trace}
		for _, build := range []func() (scheduler, error){
			func() (scheduler, error) { return chain.NewOnsiteScheduler(n, 20) },
			func() (scheduler, error) { return chain.NewOffsiteScheduler(n, 20) },
		} {
			sched, err := build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := simulate.RunChains(inst, sched)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, sched.Name(), err)
			}
			for _, d := range res.Decisions {
				if !d.Admitted {
					continue
				}
				req := inst.Trace[d.Request]
				if got := d.Placement.Availability(n, req); got+1e-9 < req.Reliability {
					t.Errorf("seed %d %s: request %d availability %v < %v",
						seed, sched.Name(), d.Request, got, req.Reliability)
				}
			}
		}
	}
}
