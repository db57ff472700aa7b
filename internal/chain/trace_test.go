package chain

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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
