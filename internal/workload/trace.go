package workload

import (
	"fmt"
	"math"
	"math/rand"

	"revnf/internal/core"
)

// ArrivalModel selects how request arrival slots are drawn.
type ArrivalModel int

// Arrival models.
const (
	// ArrivalUniform draws the arrival slot uniformly over the window in
	// which the request still finishes before the horizon.
	ArrivalUniform ArrivalModel = iota + 1
	// ArrivalPoisson spreads arrivals as a Poisson process with rate
	// chosen so the expected request count over the horizon matches; the
	// resulting burstiness mimics trace-driven arrivals.
	ArrivalPoisson
	// ArrivalDiurnal draws arrivals from a sinusoidal day/night intensity
	// profile (peak at mid-horizon, trough at the edges), the load shape
	// of human-driven IoT workloads.
	ArrivalDiurnal
)

// DurationModel selects the request duration distribution.
type DurationModel int

// Duration models.
const (
	// DurationUniform draws durations uniformly over [Min, Max].
	DurationUniform DurationModel = iota + 1
	// DurationPareto draws durations from a bounded Pareto distribution
	// (shape 1.5) over [Min, Max]: most requests are short with a heavy
	// tail of long ones, matching the Google cluster trace's job-length
	// shape [19].
	DurationPareto
)

// TraceConfig controls GenerateTrace.
type TraceConfig struct {
	// Requests is the number of requests in the trace.
	Requests int
	// Horizon is T, the number of slots; every request finishes by T.
	Horizon int
	// Arrivals selects the arrival process (default ArrivalUniform).
	Arrivals ArrivalModel
	// Durations selects the duration distribution (default
	// DurationUniform).
	Durations DurationModel
	// MinDuration and MaxDuration bound request durations in slots.
	MinDuration, MaxDuration int
	// MinRequirement and MaxRequirement bound the reliability requirement
	// R, each in (0,1). Keep MaxRequirement below the smallest cloudlet
	// reliability to preserve the paper's on-site feasibility assumption
	// r(c_j) > R_i.
	MinRequirement, MaxRequirement float64
	// MaxPaymentRate is pr_max. Payment rates are uniform over
	// [pr_max/H, pr_max] and pay = pr·d·c(f)·R (Section VI-A).
	MaxPaymentRate float64
	// H is the payment-rate variation pr_max/pr_min, ≥ 1.
	H float64
}

// Validate checks the configuration ranges.
func (c TraceConfig) Validate() error {
	if c.Requests < 1 {
		return fmt.Errorf("%w: %d requests", ErrBadConfig, c.Requests)
	}
	if c.Horizon < 1 {
		return fmt.Errorf("%w: horizon %d", ErrBadConfig, c.Horizon)
	}
	if c.MinDuration < 1 || c.MaxDuration < c.MinDuration || c.MaxDuration > c.Horizon {
		return fmt.Errorf("%w: duration range [%d,%d] horizon %d", ErrBadConfig, c.MinDuration, c.MaxDuration, c.Horizon)
	}
	if c.MinRequirement <= 0 || c.MaxRequirement >= 1 || c.MaxRequirement < c.MinRequirement {
		return fmt.Errorf("%w: requirement range [%v,%v]", ErrBadConfig, c.MinRequirement, c.MaxRequirement)
	}
	if c.MaxPaymentRate <= 0 {
		return fmt.Errorf("%w: pr_max %v", ErrBadConfig, c.MaxPaymentRate)
	}
	if c.H < 1 {
		return fmt.Errorf("%w: H=%v below 1", ErrBadConfig, c.H)
	}
	switch c.Arrivals {
	case 0, ArrivalUniform, ArrivalPoisson, ArrivalDiurnal:
	default:
		return fmt.Errorf("%w: arrival model %d", ErrBadConfig, int(c.Arrivals))
	}
	switch c.Durations {
	case 0, DurationUniform, DurationPareto:
	default:
		return fmt.Errorf("%w: duration model %d", ErrBadConfig, int(c.Durations))
	}
	return nil
}

// GenerateTrace draws a request trace against the catalog. Requests are
// returned in arrival order with IDs equal to their positions, matching the
// online model: the scheduler sees them one at a time.
func GenerateTrace(cfg TraceConfig, catalog []core.VNF, rng *rand.Rand) ([]core.Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("%w: empty catalog", ErrBadConfig)
	}
	out := ByArrival(cfg.draw(catalog, rng), cfg.Horizon, func(r *core.Request) int { return r.Arrival })
	for i := range out {
		out[i].ID = i
	}
	return out, nil
}

// ByArrival returns a copy of in stably ordered by arrival slot: elements
// that arrive in the same slot keep their relative order. Every arrival
// must lie in [1, horizon], which lets a counting sort order n elements in
// O(n + horizon) where a comparison sort pays O(n log n).
func ByArrival[T any](in []T, horizon int, arrival func(*T) int) []T {
	// next[a+1] first counts slot a; the prefix sum then turns next[a]
	// into the number of elements arriving before slot a, the position
	// of the next element arriving in a.
	next := make([]int, horizon+2)
	for i := range in {
		next[arrival(&in[i])+1]++
	}
	for a := 1; a < len(next); a++ {
		next[a] += next[a-1]
	}
	out := make([]T, len(in))
	for i := range in {
		a := arrival(&in[i])
		out[next[a]] = in[i]
		next[a]++
	}
	return out
}

// draw draws cfg.Requests requests in draw order, each with its draw index
// as ID; GenerateTrace orders them by arrival.
func (c TraceConfig) draw(catalog []core.VNF, rng *rand.Rand) []core.Request {
	arrivals := c.drawArrivals(rng)
	prMin := c.MaxPaymentRate / c.H
	out := make([]core.Request, c.Requests)
	for i := range out {
		f := catalog[rng.Intn(len(catalog))]
		dur := c.drawDuration(rng)
		arr := arrivals[i]
		// Clamp so the request finishes within the horizon (the paper
		// only considers requests with a+d-1 ≤ T).
		if arr+dur-1 > c.Horizon {
			arr = c.Horizon - dur + 1
			if arr < 1 {
				arr, dur = 1, c.Horizon
			}
		}
		req := uniform(rng, c.MinRequirement, c.MaxRequirement)
		rate := uniform(rng, prMin, c.MaxPaymentRate)
		out[i] = core.Request{
			ID:          i,
			VNF:         f.ID,
			Reliability: req,
			Arrival:     arr,
			Duration:    dur,
			Payment:     rate * float64(dur) * float64(f.Demand) * req,
		}
	}
	return out
}

func (c TraceConfig) drawArrivals(rng *rand.Rand) []int {
	model := c.Arrivals
	if model == 0 {
		model = ArrivalUniform
	}
	arrivals := make([]int, c.Requests)
	switch model {
	case ArrivalDiurnal:
		// Rejection-sample against the sinusoidal intensity
		// 0.15 + 0.85·sin²(π·t/T): slots near mid-horizon are ~6x more
		// likely than the edges.
		for i := range arrivals {
			for {
				slot := 1 + rng.Intn(c.Horizon)
				phase := math.Pi * float64(slot) / float64(c.Horizon+1)
				intensity := 0.15 + 0.85*math.Pow(math.Sin(phase), 2)
				if rng.Float64() < intensity {
					arrivals[i] = slot
					break
				}
			}
		}
	case ArrivalPoisson:
		// Exponential inter-arrival gaps with mean horizon/requests,
		// wrapped at the horizon so all requests land inside T.
		rate := float64(c.Requests) / float64(c.Horizon)
		clock := 0.0
		for i := range arrivals {
			clock += rng.ExpFloat64() / rate
			slot := int(clock) + 1
			if slot > c.Horizon {
				slot = 1 + rng.Intn(c.Horizon)
			}
			arrivals[i] = slot
		}
	default:
		for i := range arrivals {
			arrivals[i] = 1 + rng.Intn(c.Horizon)
		}
	}
	return arrivals
}

func (c TraceConfig) drawDuration(rng *rand.Rand) int {
	model := c.Durations
	if model == 0 {
		model = DurationUniform
	}
	switch model {
	case DurationPareto:
		const shape = 1.5
		lo, hi := float64(c.MinDuration), float64(c.MaxDuration)+0.999
		// Inverse-CDF sampling of a Pareto truncated to [lo, hi].
		u := rng.Float64()
		x := lo / math.Pow(1-u*(1-math.Pow(lo/hi, shape)), 1/shape)
		d := int(x)
		if d < c.MinDuration {
			d = c.MinDuration
		}
		if d > c.MaxDuration {
			d = c.MaxDuration
		}
		return d
	default:
		return c.MinDuration + rng.Intn(c.MaxDuration-c.MinDuration+1)
	}
}
