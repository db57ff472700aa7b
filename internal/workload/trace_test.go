package workload

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"revnf/internal/core"
)

func baseTraceConfig() TraceConfig {
	return TraceConfig{
		Requests:       200,
		Horizon:        50,
		MinDuration:    1,
		MaxDuration:    10,
		MinRequirement: 0.9,
		MaxRequirement: 0.99,
		MaxPaymentRate: 10,
		H:              4,
	}
}

func TestGenerateTraceBasics(t *testing.T) {
	cfg := baseTraceConfig()
	cat := DefaultCatalog()
	trace, err := GenerateTrace(cfg, cat, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	if len(trace) != cfg.Requests {
		t.Fatalf("trace length = %d, want %d", len(trace), cfg.Requests)
	}
	prevArrival := 0
	for i, r := range trace {
		if r.ID != i {
			t.Errorf("request %d has ID %d", i, r.ID)
		}
		if r.Arrival < prevArrival {
			t.Errorf("trace not sorted by arrival at %d", i)
		}
		prevArrival = r.Arrival
		if r.Arrival < 1 || r.End() > cfg.Horizon {
			t.Errorf("request %d window [%d,%d] outside horizon", i, r.Arrival, r.End())
		}
		if r.Duration < cfg.MinDuration || r.Duration > cfg.MaxDuration {
			t.Errorf("request %d duration %d out of range", i, r.Duration)
		}
		if r.Reliability < cfg.MinRequirement || r.Reliability > cfg.MaxRequirement {
			t.Errorf("request %d requirement %v out of range", i, r.Reliability)
		}
		if r.VNF < 0 || r.VNF >= len(cat) {
			t.Errorf("request %d unknown VNF %d", i, r.VNF)
		}
		// Payment = rate·d·c(f)·R with rate ∈ [pr_max/H, pr_max].
		f := cat[r.VNF]
		rate := r.Payment / (float64(r.Duration) * float64(f.Demand) * r.Reliability)
		if rate < cfg.MaxPaymentRate/cfg.H-1e-9 || rate > cfg.MaxPaymentRate+1e-9 {
			t.Errorf("request %d payment rate %v outside [%v,%v]", i, rate, cfg.MaxPaymentRate/cfg.H, cfg.MaxPaymentRate)
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := baseTraceConfig()
	cat := DefaultCatalog()
	a, err := GenerateTrace(cfg, cat, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	b, err := GenerateTrace(cfg, cat, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical seeds", i)
		}
	}
}

func TestGenerateTracePoissonArrivals(t *testing.T) {
	cfg := baseTraceConfig()
	cfg.Arrivals = ArrivalPoisson
	trace, err := GenerateTrace(cfg, DefaultCatalog(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	for _, r := range trace {
		if r.Arrival < 1 || r.End() > cfg.Horizon {
			t.Fatalf("request %d window [%d,%d] outside horizon", r.ID, r.Arrival, r.End())
		}
	}
}

func TestGenerateTraceParetoDurations(t *testing.T) {
	cfg := baseTraceConfig()
	cfg.Durations = DurationPareto
	cfg.Requests = 2000
	trace, err := GenerateTrace(cfg, DefaultCatalog(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	short, total := 0, 0
	for _, r := range trace {
		if r.Duration < cfg.MinDuration || r.Duration > cfg.MaxDuration {
			t.Fatalf("duration %d out of range", r.Duration)
		}
		if r.Duration <= 2 {
			short++
		}
		total++
	}
	// Heavy-tailed: well over half the requests should be short.
	if frac := float64(short) / float64(total); frac < 0.5 {
		t.Errorf("Pareto durations: only %.0f%% short requests, want ≥ 50%%", 100*frac)
	}
}

func TestGenerateTraceHEqualsOne(t *testing.T) {
	cfg := baseTraceConfig()
	cfg.H = 1
	cat := DefaultCatalog()
	trace, err := GenerateTrace(cfg, cat, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	for _, r := range trace {
		f := cat[r.VNF]
		rate := r.Payment / (float64(r.Duration) * float64(f.Demand) * r.Reliability)
		if !core.FloatEqTol(rate, cfg.MaxPaymentRate, 1e-9) {
			t.Fatalf("H=1 payment rate = %v, want %v", rate, cfg.MaxPaymentRate)
		}
	}
}

func TestTraceConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*TraceConfig)
	}{
		{"zero requests", func(c *TraceConfig) { c.Requests = 0 }},
		{"zero horizon", func(c *TraceConfig) { c.Horizon = 0 }},
		{"zero min duration", func(c *TraceConfig) { c.MinDuration = 0 }},
		{"duration beyond horizon", func(c *TraceConfig) { c.MaxDuration = 99 }},
		{"inverted duration", func(c *TraceConfig) { c.MaxDuration = 0 }},
		{"requirement 0", func(c *TraceConfig) { c.MinRequirement = 0 }},
		{"requirement 1", func(c *TraceConfig) { c.MaxRequirement = 1 }},
		{"zero payment rate", func(c *TraceConfig) { c.MaxPaymentRate = 0 }},
		{"H below 1", func(c *TraceConfig) { c.H = 0.9 }},
		{"bad arrival model", func(c *TraceConfig) { c.Arrivals = 99 }},
		{"bad duration model", func(c *TraceConfig) { c.Durations = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseTraceConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Validate() = %v, want ErrBadConfig", err)
			}
			if _, err := GenerateTrace(cfg, DefaultCatalog(), rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadConfig) {
				t.Errorf("GenerateTrace() = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestGenerateTraceEmptyCatalog(t *testing.T) {
	if _, err := GenerateTrace(baseTraceConfig(), nil, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty catalog err = %v, want ErrBadConfig", err)
	}
}

func TestGenerateTraceDiurnalArrivals(t *testing.T) {
	cfg := baseTraceConfig()
	cfg.Arrivals = ArrivalDiurnal
	cfg.Requests = 4000
	cfg.MaxDuration = 1
	trace, err := GenerateTrace(cfg, DefaultCatalog(), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	// Mid-horizon slots must see clearly more arrivals than the edges.
	mid, edge := 0, 0
	for _, r := range trace {
		frac := float64(r.Arrival) / float64(cfg.Horizon)
		switch {
		case frac > 0.35 && frac < 0.65:
			mid++
		case frac < 0.15 || frac > 0.85:
			edge++
		}
	}
	if mid < 2*edge {
		t.Errorf("diurnal profile too flat: mid %d vs edge %d", mid, edge)
	}
	for _, r := range trace {
		if r.Arrival < 1 || r.End() > cfg.Horizon {
			t.Fatalf("request window [%d,%d] outside horizon", r.Arrival, r.End())
		}
	}
}

// stableByArrival is the reference ByArrival must reproduce element for
// element: a stable comparison sort by arrival.
func stableByArrival[T any](in []T, arrival func(*T) int) []T {
	out := append([]T(nil), in...)
	sort.SliceStable(out, func(a, b int) bool { return arrival(&out[a]) < arrival(&out[b]) })
	return out
}

func TestArrivalOrderMatchesStableSort(t *testing.T) {
	requestArrival := func(r *core.Request) int { return r.Arrival }
	cat := DefaultCatalog()
	for _, am := range []ArrivalModel{ArrivalUniform, ArrivalPoisson, ArrivalDiurnal} {
		for _, dm := range []DurationModel{DurationUniform, DurationPareto} {
			for _, horizon := range []int{1, 10, 64} {
				cfg := baseTraceConfig()
				cfg.Requests, cfg.Horizon, cfg.Arrivals, cfg.Durations = 3000, horizon, am, dm
				cfg.MaxDuration = min(cfg.MaxDuration, horizon)
				drawn := cfg.draw(cat, rand.New(rand.NewSource(int64(horizon))))
				want := stableByArrival(drawn, requestArrival)
				if got := ByArrival(drawn, horizon, requestArrival); !slices.Equal(got, want) {
					t.Fatalf("arrivals %d durations %d horizon %d: ByArrival differs from the stable sort", am, dm, horizon)
				}
				for i := range want {
					want[i].ID = i
				}
				trace, err := GenerateTrace(cfg, cat, rand.New(rand.NewSource(int64(horizon))))
				if err != nil {
					t.Fatalf("GenerateTrace: %v", err)
				}
				if !slices.Equal(trace, want) {
					t.Fatalf("arrivals %d durations %d horizon %d: GenerateTrace differs from draw, stable sort, renumber", am, dm, horizon)
				}
			}
		}
	}

	// seq is each element's input position, so equal outputs also pin the
	// order of ties.
	type item struct{ arrival, seq int }
	itemArrival := func(it *item) int { return it.arrival }
	check := func(name string, in []item, horizon int) {
		t.Helper()
		want := stableByArrival(in, itemArrival)
		if got := ByArrival(in, horizon, itemArrival); !slices.Equal(got, want) {
			t.Fatalf("%s (n=%d, horizon %d): ByArrival differs from the stable sort", name, len(in), horizon)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n, horizon := 1+rng.Intn(5000), 1+rng.Intn(200)
		in := make([]item, n)
		for i := range in {
			in[i] = item{1 + rng.Intn(horizon), i}
		}
		check("random", in, horizon)
	}
	const n = 1000
	same, reverse, one := make([]item, n), make([]item, n), make([]item, n)
	for i := range same {
		same[i] = item{7, i}
		reverse[i] = item{n - i/3, i}
		one[i] = item{1, i}
	}
	check("all one arrival", same, 50)
	check("reverse order", reverse, n)
	check("horizon 1", one, 1)
	check("empty", nil, 5)
}

// BenchmarkGenerateTrace draws the benchmark's request pool: 20 000
// requests over a 64-slot horizon, durations 1–10, at the experiments'
// default requirement and payment ranges.
func BenchmarkGenerateTrace(b *testing.B) {
	cfg := TraceConfig{
		Requests:       20000,
		Horizon:        64,
		MinDuration:    1,
		MaxDuration:    10,
		MinRequirement: 0.90,
		MaxRequirement: 0.95,
		MaxPaymentRate: 10,
		H:              10,
	}
	cat := DefaultCatalog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace, err := GenerateTrace(cfg, cat, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		benchTrace = trace
	}
}

var benchTrace []core.Request
