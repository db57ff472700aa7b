package chain

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"revnf/internal/core"
	"revnf/internal/workload"
)

func chainTraceConfig() TraceConfig {
	return TraceConfig{
		Requests:       80,
		Horizon:        20,
		MinLength:      1,
		MaxLength:      3,
		MinDuration:    1,
		MaxDuration:    5,
		MinRequirement: 0.85,
		MaxRequirement: 0.93,
		MaxPaymentRate: 10,
		H:              5,
	}
}

func chainInstance(t *testing.T) *Instance {
	t.Helper()
	n := testNetwork()
	trace, err := GenerateTrace(chainTraceConfig(), n.Catalog, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	inst := &Instance{Network: n, Horizon: 20, Trace: trace}
	if err := inst.Validate(); err != nil {
		t.Fatalf("instance invalid: %v", err)
	}
	return inst
}

func TestGenerateTrace(t *testing.T) {
	inst := chainInstance(t)
	prev := 0
	for i, r := range inst.Trace {
		if r.ID != i {
			t.Errorf("request %d has ID %d", i, r.ID)
		}
		if r.Arrival < prev {
			t.Error("trace not sorted by arrival")
		}
		prev = r.Arrival
		if r.Length() < 1 || r.Length() > 3 {
			t.Errorf("chain length %d out of range", r.Length())
		}
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := chainTraceConfig()
	cfg.Requests = 0
	if _, err := GenerateTrace(cfg, testNetwork().Catalog, rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero requests err = %v", err)
	}
	cfg = chainTraceConfig()
	cfg.MaxLength = 0
	if _, err := GenerateTrace(cfg, testNetwork().Catalog, rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad length err = %v", err)
	}
	cfg = chainTraceConfig()
	cfg.MaxDuration = 99
	if _, err := GenerateTrace(cfg, testNetwork().Catalog, rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad duration err = %v", err)
	}
	cfg = chainTraceConfig()
	cfg.H = 0.5
	if _, err := GenerateTrace(cfg, testNetwork().Catalog, rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad H err = %v", err)
	}
	cfg = chainTraceConfig()
	cfg.MinRequirement = 0
	if _, err := GenerateTrace(cfg, testNetwork().Catalog, rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad requirement err = %v", err)
	}
	if _, err := GenerateTrace(chainTraceConfig(), nil, rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty catalog err = %v", err)
	}
}

func TestRunAllChainSchedulers(t *testing.T) {
	inst := chainInstance(t)
	builds := []func() (Scheduler, error){
		func() (Scheduler, error) { return NewOnsiteScheduler(inst.Network, inst.Horizon) },
		func() (Scheduler, error) { return NewOffsiteScheduler(inst.Network, inst.Horizon) },
		func() (Scheduler, error) { return NewGreedyOnsite(inst.Network, inst.Horizon) },
		func() (Scheduler, error) { return NewGreedyOffsite(inst.Network, inst.Horizon) },
	}
	for _, build := range builds {
		sched, err := build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := Run(inst, sched)
		if err != nil {
			t.Fatalf("Run %s: %v", sched.Name(), err)
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
	inst := chainInstance(t)
	if _, err := Run(inst, nil); !errors.Is(err, ErrBadScheduler) {
		t.Errorf("nil scheduler err = %v", err)
	}
	if _, err := Run(nil, &OnsiteScheduler{}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("nil instance err = %v", err)
	}
	broken := chainInstance(t)
	broken.Trace[3].ID = 99
	if _, err := Run(broken, &OnsiteScheduler{}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("bad trace err = %v", err)
	}
}

func TestRunRejectsInvalidPlacement(t *testing.T) {
	inst := chainInstance(t)
	if _, err := Run(inst, badChainScheduler{}); !errors.Is(err, core.ErrBelowRequirement) &&
		!errors.Is(err, ErrBadPlacement) {
		t.Errorf("bad scheduler err = %v", err)
	}
}

type badChainScheduler struct{}

func (badChainScheduler) Name() string        { return "bad" }
func (badChainScheduler) Scheme() core.Scheme { return core.OnSite }
func (badChainScheduler) Decide(req Request, _ core.CapacityView) (Placement, bool) {
	stages := make([]StagePlacement, len(req.VNFs))
	for k, f := range req.VNFs {
		stages[k] = StagePlacement{VNF: f, Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}}}
	}
	return Placement{Request: req.ID, Scheme: core.OnSite, Stages: stages}, true
}

func TestResultAdmissionRateEmpty(t *testing.T) {
	r := &Result{}
	if r.AdmissionRate() != 0 {
		t.Errorf("empty AdmissionRate = %v", r.AdmissionRate())
	}
}

// Integration property: over many seeds, every admitted chain placement
// meets its requirement (revalidated independently) and capacity is never
// violated (Run errors otherwise).
func TestChainSchedulersInvariantProperty(t *testing.T) {
	n := testNetwork()
	for seed := int64(1); seed <= 10; seed++ {
		trace, err := GenerateTrace(chainTraceConfig(), n.Catalog, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("GenerateTrace: %v", err)
		}
		inst := &Instance{Network: n, Horizon: 20, Trace: trace}
		for _, build := range []func() (Scheduler, error){
			func() (Scheduler, error) { return NewOnsiteScheduler(n, 20) },
			func() (Scheduler, error) { return NewOffsiteScheduler(n, 20) },
		} {
			sched, err := build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := Run(inst, sched)
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

// TestArrivalOrderMatchesStableSort pins chain traces to a stable
// comparison sort by arrival: draw, sort, renumber.
func TestArrivalOrderMatchesStableSort(t *testing.T) {
	catalog := testNetwork().Catalog
	for _, horizon := range []int{1, 3, 20, 64} {
		cfg := chainTraceConfig()
		cfg.Requests, cfg.Horizon = 2000, horizon
		cfg.MaxDuration = min(cfg.MaxDuration, horizon)
		drawn := cfg.draw(catalog, rand.New(rand.NewSource(int64(horizon))))
		want := append([]Request(nil), drawn...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].Arrival < want[b].Arrival })
		got := workload.ByArrival(drawn, horizon, func(r *Request) int { return r.Arrival })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("horizon %d: ByArrival differs from the stable sort", horizon)
		}
		for i := range want {
			want[i].ID = i
		}
		trace, err := GenerateTrace(cfg, catalog, rand.New(rand.NewSource(int64(horizon))))
		if err != nil {
			t.Fatalf("GenerateTrace: %v", err)
		}
		if !reflect.DeepEqual(trace, want) {
			t.Fatalf("horizon %d: GenerateTrace differs from draw, stable sort, renumber", horizon)
		}
	}
}
