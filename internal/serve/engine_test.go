package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/shared"
	"revnf/internal/simulate"
)

// testNetwork is a two-cloudlet network where every request of the test
// VNF needs 2 instances on-site (r(c)·(1-(1-r(f))^2) ≥ 0.9 holds, one
// instance does not).
func testNetwork() *core.Network {
	return &core.Network{
		Catalog: []core.VNF{
			{ID: 0, Name: "fw", Demand: 2, Reliability: 0.8},
		},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: -1, Capacity: 10, Reliability: 0.99},
			{ID: 1, Node: -1, Capacity: 10, Reliability: 0.98},
		},
	}
}

func newTestEngine(t *testing.T, horizon int, opts ...func(*Config)) *Engine {
	t.Helper()
	n := testNetwork()
	sched, err := onsite.NewScheduler(n, horizon, onsite.WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Network: n, Scheduler: sched, Horizon: horizon}
	for _, opt := range opts {
		opt(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	return e
}

// submit decides one request through SubmitBatch and fails the test on an
// error; submitOne returns the error, for the closed and canceled cases and
// for submitters on goroutines of their own.
func submit(t *testing.T, e *Engine, ar AdmissionRequest) AdmissionResult {
	t.Helper()
	res, err := submitOne(context.Background(), e, ar)
	if err != nil {
		t.Fatalf("submit(%+v): %v", ar, err)
	}
	return res
}

func submitOne(ctx context.Context, e *Engine, ar AdmissionRequest) (AdmissionResult, error) {
	var out [1]AdmissionResult
	err := e.SubmitBatch(ctx, []AdmissionRequest{ar}, out[:])
	return out[0], err
}

func TestEngineAdmitAndReject(t *testing.T) {
	e := newTestEngine(t, 20)
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10})
	if !res.Admitted || res.Slot != 1 {
		t.Fatalf("first request not admitted at slot 1: %+v", res)
	}
	if got := res.Placement.TotalInstances(); got != 2 {
		t.Errorf("instances = %d, want 2 (primary + backup)", got)
	}
	// A request no cloudlet can satisfy is declined by the scheduler.
	res = submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.995, Duration: 3, Payment: 10})
	if res.Admitted || res.Reason != ReasonDeclined {
		t.Errorf("infeasible requirement: %+v, want declined", res)
	}
	// Malformed model data is rejected as invalid.
	res = submit(t, e, AdmissionRequest{VNF: 7, Reliability: 0.9, Duration: 3, Payment: 10})
	if res.Admitted || res.Reason != ReasonInvalid {
		t.Errorf("unknown VNF: %+v, want invalid", res)
	}
	res = submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 0, Payment: 10})
	if res.Admitted || res.Reason != ReasonInvalid {
		t.Errorf("zero duration: %+v, want invalid", res)
	}
	// Windows beyond the horizon are rejected with their own reason.
	res = submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 21, Payment: 10})
	if res.Admitted || res.Reason != ReasonHorizon {
		t.Errorf("beyond horizon: %+v, want horizon", res)
	}
	s := e.Stats()
	if s.Admitted != 1 || s.RejectedTotal() != 4 {
		t.Errorf("stats admitted/rejected = %d/%d, want 1/4", s.Admitted, s.RejectedTotal())
	}
	if s.Revenue != 10 {
		t.Errorf("revenue = %v, want 10", s.Revenue)
	}
}

func TestEngineSlotClockExpiry(t *testing.T) {
	e := newTestEngine(t, 10)
	// Admit at slot 1 with duration 3: capacity held for slots [1,3],
	// released exactly when the clock reaches slot 4 = a + d.
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 5})
	if !res.Admitted {
		t.Fatalf("not admitted: %+v", res)
	}
	units := 2 * 2 // 2 instances × demand 2
	j := res.Placement.Assignments[0].Cloudlet
	for t0 := 1; t0 <= 3; t0++ {
		if got := e.Cloudlets()[j].Residual[t0-1]; got != 10-units {
			t.Errorf("slot %d residual = %d, want %d", t0, got, 10-units)
		}
	}
	for tick := 2; tick <= 3; tick++ {
		rep := e.Tick()
		if rep.Slot != tick || rep.Expired != 0 {
			t.Fatalf("tick to %d: %+v, want no expiry", tick, rep)
		}
	}
	rec, ok := e.Placement(res.ID)
	if !ok || rec.State != StateActive {
		t.Fatalf("placement at slot 3 = %+v, want active", rec)
	}
	rep := e.Tick() // slot 4 = a+d: release
	if rep.Slot != 4 || rep.Expired != 1 {
		t.Fatalf("tick to 4: %+v, want 1 expiry", rep)
	}
	rec, ok = e.Placement(res.ID)
	if !ok || rec.State != StateExpired {
		t.Errorf("placement after expiry = %+v, want expired", rec)
	}
	// Full capacity is back in the ledger over the whole window.
	cls := e.Cloudlets()[j]
	if cls.FromSlot != 4 {
		t.Fatalf("FromSlot = %d, want 4", cls.FromSlot)
	}
	s := e.Stats()
	if s.Expired != 1 || s.ActivePlacements != 0 {
		t.Errorf("stats expired/active = %d/%d, want 1/0", s.Expired, s.ActivePlacements)
	}
	// The released capacity is actually reusable: a duration-1 request
	// starting at slot 4 sees the full cloudlet again.
	res2 := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 5})
	if !res2.Admitted || res2.Slot != 4 {
		t.Fatalf("post-expiry admission: %+v", res2)
	}
}

func TestEngineStaleArrivalRejected(t *testing.T) {
	e := newTestEngine(t, 10)
	e.Tick()
	e.Tick() // slot 3
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 2, Duration: 2, Payment: 5})
	if res.Admitted || res.Reason != ReasonStale {
		t.Errorf("stale arrival: %+v, want stale", res)
	}
	// Arrival 0 means "now" and still works at slot 3.
	res = submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 2, Payment: 5})
	if !res.Admitted || res.Slot != 3 {
		t.Errorf("arrival=now at slot 3: %+v", res)
	}
	rec, ok := e.Placement(res.ID)
	if !ok || rec.Request.Arrival != 3 {
		t.Errorf("recorded arrival = %+v, want 3", rec.Request)
	}
}

func TestEngineFutureArrivalScheduled(t *testing.T) {
	e := newTestEngine(t, 10)
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 5, Duration: 2, Payment: 5})
	if !res.Admitted {
		t.Fatalf("future arrival not admitted: %+v", res)
	}
	rec, _ := e.Placement(res.ID)
	if rec.State != StateScheduled {
		t.Errorf("state before window = %q, want scheduled", rec.State)
	}
	for e.Slot() < 5 {
		e.Tick()
	}
	rec, _ = e.Placement(res.ID)
	if rec.State != StateActive {
		t.Errorf("state inside window = %q, want active", rec.State)
	}
	for e.Slot() < 7 {
		e.Tick()
	}
	rec, _ = e.Placement(res.ID)
	if rec.State != StateExpired {
		t.Errorf("state at slot 7 = %q, want expired", rec.State)
	}
}

// TestEngineManualTickDeterminism drives concurrent submitters against a
// manually ticked engine under -race: every decision is serialized, the
// ledger never overcommits, and accounting stays consistent.
func TestEngineManualTickDeterminism(t *testing.T) {
	e := newTestEngine(t, 40, func(c *Config) { c.QueueSize = 1024 })
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted := 0
	var revenue float64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := submitOne(context.Background(), e,
					AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1 + i%5, Payment: 3})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if res.Admitted {
					mu.Lock()
					admitted++
					revenue += 3
					mu.Unlock()
				}
			}
		}()
	}
	// Tick concurrently with the submitters.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			e.Tick()
		}
	}()
	wg.Wait()
	<-done
	s := e.Stats()
	if int(s.Admitted) != admitted {
		t.Errorf("engine admitted %d, callers saw %d", s.Admitted, admitted)
	}
	if s.Revenue != revenue {
		t.Errorf("engine revenue %v, callers saw %v", s.Revenue, revenue)
	}
	if got := int(s.Admitted + s.RejectedTotal()); got != workers*perWorker {
		t.Errorf("decisions = %d, want %d", got, workers*perWorker)
	}
	// No cell may exceed capacity (enforced scheduler + Reserve).
	for _, cl := range e.Cloudlets() {
		for i, free := range cl.Residual {
			if free < 0 {
				t.Errorf("cloudlet %d slot %d overcommitted: residual %d", cl.ID, cl.FromSlot+i, free)
			}
		}
	}
	// Drain the horizon: every admitted placement must expire and return
	// its capacity.
	for e.Slot() <= 45 {
		e.Tick()
	}
	s = e.Stats()
	if s.Expired != s.Admitted || s.ActivePlacements != 0 {
		t.Errorf("after horizon: expired %d of %d admitted, %d active",
			s.Expired, s.Admitted, s.ActivePlacements)
	}
}

func TestEngineRealTimeClock(t *testing.T) {
	e := newTestEngine(t, 1000, func(c *Config) { c.SlotDuration = 2 * time.Millisecond })
	deadline := time.Now().Add(2 * time.Second)
	for e.Slot() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("clock did not advance past slot %d", e.Slot())
		}
		time.Sleep(time.Millisecond)
	}
}

// panickyAdvancer is pd-onsite whose first window advance panics.
type panickyAdvancer struct {
	*onsite.Scheduler
	panicked atomic.Bool
}

func (s *panickyAdvancer) AdvanceWindow(base int) {
	if s.panicked.CompareAndSwap(false, true) {
		panic("advance window")
	}
	s.Scheduler.AdvanceWindow(base)
}

// TestEngineClockRecoversPanickingTick: a window advance that panics once
// costs its tick only. On the real-time clock the panic is counted and the
// clock keeps ticking; on a manual clock, where no tick can retire the
// arrival slot mid-decision, a recovered tick leaves the engine admitting.
func TestEngineClockRecoversPanickingTick(t *testing.T) {
	n := testNetwork()
	newEngine := func(slot time.Duration) (*Engine, *panickyAdvancer) {
		sched := &panickyAdvancer{Scheduler: newOnsiteScheduler(t, n, 8)}
		e, err := New(Config{Network: n, Scheduler: sched, Horizon: 8, Rolling: true, SlotDuration: slot})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdownEngine(t, e) })
		return e, sched
	}
	panicsCounted := func(e *Engine) {
		t.Helper()
		var metrics strings.Builder
		if err := e.WriteMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(metrics.String(), "revnfd_clock_panics_total 1\n") {
			t.Error("metrics missing revnfd_clock_panics_total 1")
		}
	}

	e, sched := newEngine(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !sched.panicked.Load() || e.Slot() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("clock stopped at slot %d (panicked: %v)", e.Slot(), sched.panicked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	panicsCounted(e)

	e, sched = newEngine(0)
	e.clockTick()
	if !sched.panicked.Load() {
		t.Fatal("the manual clock's first tick did not advance the window")
	}
	panicsCounted(e)
	e.Tick()
	if res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 2, Payment: 100}); !res.Admitted {
		t.Errorf("a request after the panicking tick: %+v, want admitted", res)
	}
}

func TestEngineShutdown(t *testing.T) {
	e := newTestEngine(t, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := e.Shutdown(ctx); err != nil { // idempotent
		t.Fatalf("second Shutdown: %v", err)
	}
	if !e.Closed() {
		t.Error("Closed() = false after Shutdown")
	}
	if _, err := submitOne(context.Background(), e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown: err = %v, want ErrClosed", err)
	}
	if got := e.Stats().Rejections[ReasonClosed]; got != 1 {
		t.Errorf("closed rejections = %d, want 1", got)
	}
}

// TestEngineShutdownDrains verifies every submission accepted before
// Shutdown gets a real decision.
func TestEngineShutdownDrains(t *testing.T) {
	e := newTestEngine(t, 10, func(c *Config) { c.QueueSize = 512 })
	const n = 200
	var wg sync.WaitGroup
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := submitOne(context.Background(), e,
				AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 1})
			results <- err
		}()
	}
	// Shut down while submissions are in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(results)
	decided, refused := 0, 0
	for err := range results {
		switch {
		case err == nil:
			decided++
		case errors.Is(err, ErrClosed):
			refused++
		default:
			t.Errorf("unexpected submit error: %v", err)
		}
	}
	if decided+refused != n {
		t.Errorf("decided %d + refused %d != %d", decided, refused, n)
	}
	s := e.Stats()
	if int(s.Admitted+s.RejectedTotal()) != n {
		t.Errorf("engine decided %d, want %d accounted", s.Admitted+s.RejectedTotal(), n)
	}
}

func TestEngineQueueFullBackpressure(t *testing.T) {
	n := testNetwork()
	sched, err := onsite.NewScheduler(n, 10, onsite.WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 10, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	}()
	// With a queue of 1, flooding concurrently must produce decisions and
	// queue-full rejections only, never an error.
	var wg sync.WaitGroup
	var full, ok int64
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := submitOne(context.Background(), e,
				AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 1})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				t.Errorf("unexpected error: %v", err)
			case res.Reason == ReasonQueueFull:
				full++
			default:
				ok++
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no submission succeeded")
	}
	if got := e.Stats().Rejections[ReasonQueueFull]; got != uint64(full) {
		t.Errorf("queue-full counter = %d, callers saw %d", got, full)
	}
}

func TestEngineOverbookRollback(t *testing.T) {
	// An unenforced (raw) scheduler will overcommit; stripped of its
	// violation licence it must be refused and rolled back cleanly —
	// as overbooked at every worker count: the view showed the cloudlet
	// full, so the refusal is no lost race and nothing is retried.
	for _, workers := range []int{1, 4} {
		n := testNetwork()
		sched, err := onsite.NewScheduler(n, 10) // raw variant
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Network: n, Scheduler: unlicensed{sched}, Horizon: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdownEngine(t, e) })
		if e.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", e.Workers(), workers)
		}
		// Escalating payments defeat the dual prices, so the raw variant keeps
		// admitting until the 2×10-unit network physically cannot hold more.
		// A refused footprint must not move λ: Commit follows the reservation.
		lambda := func() float64 { return sched.Lambda(0, 1) + sched.Lambda(1, 1) }
		overbooked := false
		pay := 1000.0
		for i := 0; i < 50 && !overbooked; i++ {
			before := lambda()
			res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 10, Payment: pay})
			pay *= 3
			if res.Reason == ReasonOverbooked {
				overbooked = true
				if after := lambda(); after != before {
					t.Errorf("workers=%d: λ moved %v → %v for a refused footprint", workers, before, after)
				}
			}
		}
		if !overbooked {
			t.Fatalf("workers=%d: raw scheduler never overbooked a 2×10-unit network", workers)
		}
		if s := e.Stats(); s.ConflictRetries != 0 || s.Rejections[ReasonConflict] != 0 {
			t.Errorf("workers=%d: %d conflict retries, %d conflict rejections; an overbooking scheduler lost no race",
				workers, s.ConflictRetries, s.Rejections[ReasonConflict])
		}
		for _, cl := range e.Cloudlets() {
			for i, free := range cl.Residual {
				if free < 0 {
					t.Errorf("workers=%d: rollback failed: cloudlet %d slot %d residual %d", workers, cl.ID, cl.FromSlot+i, free)
				}
			}
		}
	}
}

// unlicensed forwards a scheduler's two-phase contract but not its
// violation licence, which makes the raw Algorithm 1 an overbooking
// scheduler.
type unlicensed struct{ core.Scheduler }

func TestEngineAllowViolations(t *testing.T) {
	n := testNetwork()
	sched, err := onsite.NewScheduler(n, 10) // raw variant
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	}()
	sawNegative := false
	pay := 1000.0
	for i := 0; i < 50; i++ {
		submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 10, Payment: pay})
		pay *= 3
	}
	for _, cl := range e.Cloudlets() {
		for _, free := range cl.Residual {
			if free < 0 {
				sawNegative = true
			}
		}
	}
	if !sawNegative {
		t.Error("violation licence never produced an overcommitted cell")
	}
	if got := e.Stats().Rejections[ReasonOverbooked]; got != 0 {
		t.Errorf("overbooked rejections = %d, want 0 with violations allowed", got)
	}
}

// TestEngineLatencySampling pins what the latency histogram counts at every
// worker count: one observation per SubmitBatch call whatever its size.
func TestEngineLatencySampling(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := newTestEngine(t, 10, func(c *Config) { c.Workers = workers })
		ar := AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 1}
		reqs, out := []AdmissionRequest{ar, ar, ar, ar, ar}, make([]AdmissionResult, 5)
		for call := uint64(1); call <= 3; call++ {
			if err := e.SubmitBatch(context.Background(), reqs[:call], out[:call]); err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().Latency.Count(); got != call {
				t.Errorf("workers=%d: %d latency samples after %d calls, want %d", workers, got, call, call)
			}
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	n := testNetwork()
	sched, err := onsite.NewScheduler(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Network: n, Horizon: 10},                                  // nil scheduler
		{Scheduler: sched, Horizon: 10},                            // nil network
		{Network: n, Scheduler: sched},                             // horizon 0
		{Network: n, Scheduler: sched, Horizon: 10, QueueSize: -1}, // bad queue
		{Network: &core.Network{}, Scheduler: sched, Horizon: 10},  // invalid network
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestEngineSubmitContextCancel(t *testing.T) {
	e := newTestEngine(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A decision and context.Canceled are both acceptable; anything else is
	// not.
	_, err := submitOne(ctx, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 1})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
	// The decision still happened and is accounted for.
	deadline := time.Now().Add(time.Second)
	for {
		s := e.Stats()
		if s.Admitted+s.RejectedTotal() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned submission never decided")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineCanceledJobSkipped submits with an already-canceled context:
// the gate must drop the submission without touching the scheduler —
// deciding would mutate dual prices for a caller that abandoned the wait —
// and account for it under the "canceled" rejection reason.
func TestEngineCanceledJobSkipped(t *testing.T) {
	e := newTestEngine(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := submitOne(ctx, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		s := e.Stats()
		if s.Rejections[ReasonCanceled] == 1 {
			if s.Admitted != 0 {
				t.Fatalf("canceled job reached the scheduler: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled rejection never counted: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// A live context still gets a decision afterwards: the skip gave back
	// everything the gate took.
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 5})
	if !res.Admitted {
		t.Fatalf("follow-up submission not admitted: %+v", res)
	}
}

// withSharedScheduler swaps the default on-site scheduler for the shared
// pd scheduler with the given pool size.
func withSharedScheduler(t *testing.T, poolSize int) func(*Config) {
	return func(cfg *Config) {
		sched, err := shared.NewScheduler(cfg.Network, cfg.Horizon, shared.WithPoolSize(poolSize))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheduler = sched
	}
}

func TestEngineSchemeGate(t *testing.T) {
	e := newTestEngine(t, 20)
	// An empty pin and a pin matching the scheduler's scheme both admit.
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10})
	if !res.Admitted {
		t.Fatalf("unpinned request not admitted: %+v", res)
	}
	res = submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10, Scheme: "onsite"})
	if !res.Admitted {
		t.Fatalf("matching pin not admitted: %+v", res)
	}
	// Pinning a scheme the scheduler does not implement rejects without
	// touching the scheduler.
	for _, pin := range []string{"offsite", "shared"} {
		res = submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10, Scheme: pin})
		if res.Admitted || res.Reason != ReasonSchemeUnavailable {
			t.Errorf("pin %q: %+v, want scheme-unavailable", pin, res)
		}
	}
	// An unparsable pin is a malformed request, not a capacity decision.
	res = submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10, Scheme: "raid1"})
	if res.Admitted || res.Reason != ReasonInvalid {
		t.Errorf("bogus pin: %+v, want invalid", res)
	}
	s := e.Stats()
	if got := s.AdmittedByScheme["on-site"]; got != 2 {
		t.Errorf("admitted_by_scheme[on-site] = %d, want 2", got)
	}
}

// TestEnginePooledLifecycle drives shared-backup placements through the
// full admit -> expire cycle and checks the pooled capacity drains: after
// every member of a backup group expires, the cloudlets are back to full
// capacity and a fresh wave of requests admits again.
func TestEnginePooledLifecycle(t *testing.T) {
	e := newTestEngine(t, 30, withSharedScheduler(t, 2))

	admitOne := func() AdmissionResult {
		res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10})
		if !res.Admitted {
			t.Fatalf("shared request not admitted: %+v", res)
		}
		if res.Placement.Scheme != core.Shared || res.Placement.Backup == nil {
			t.Fatalf("placement is not a shared-backup placement: %+v", res.Placement)
		}
		return res
	}
	first, second := admitOne(), admitOne()
	if first.Placement.Backup.PoolSize != 2 {
		t.Errorf("pool size = %d, want 2", first.Placement.Backup.PoolSize)
	}
	// Two members, pool size two, same slot: the scheduler may pool them
	// into one group or open a second; either way each carries a group id.
	if first.Placement.Backup.Group <= 0 || second.Placement.Backup.Group <= 0 {
		t.Errorf("backup groups = %d, %d, want positive ids",
			first.Placement.Backup.Group, second.Placement.Backup.Group)
	}

	// Advance past expiry: both placements release their primaries and
	// leave their groups, so the pooled instances are freed too.
	for e.Slot() < 5 {
		e.Tick()
	}
	s := e.Stats()
	if s.Expired != 2 || s.ActivePlacements != 0 {
		t.Fatalf("stats expired/active = %d/%d, want 2/0", s.Expired, s.ActivePlacements)
	}
	for _, c := range e.Cloudlets() {
		for off, free := range c.Residual {
			if free != c.Capacity {
				t.Errorf("cloudlet %d slot offset %d: residual %d, want full capacity %d",
					c.ID, off, free, c.Capacity)
			}
		}
	}

	// The freed capacity is immediately reusable by a new group.
	third := admitOne()
	if third.Placement.Backup.PoolSize != 2 {
		t.Errorf("post-drain pool size = %d, want 2", third.Placement.Backup.PoolSize)
	}
	if got := e.Stats().AdmittedByScheme["shared"]; got != 3 {
		t.Errorf("admitted_by_scheme[shared] = %d, want 3", got)
	}
}

// TestEngineOneTokenMatchesSimulator holds the engine at one worker token
// to the batch simulator: over a 500-request instance on the slot clock, in
// fixed and rolling mode, every scheduler admits the same requests on the
// same placements (backup cloudlet and group ID included) and sums the same
// revenue, bit for bit, as simulate.Run with a fresh scheduler. One token
// is the serial order Theorem 1 reasons about; this is what says the single
// path still produces it.
func TestEngineOneTokenMatchesSimulator(t *testing.T) {
	setup := experiments.DefaultSetup()
	inst, err := setup.Instance(500, setup.H, setup.K, 42)
	if err != nil {
		t.Fatal(err)
	}
	n, T := inst.Network, inst.Horizon
	for _, tc := range []struct {
		name string
		make func() (core.Scheduler, error)
	}{
		{"pd-onsite", func() (core.Scheduler, error) {
			return onsite.NewScheduler(n, T, onsite.WithCapacityEnforcement())
		}},
		{"pd-onsite-raw", func() (core.Scheduler, error) { return onsite.NewScheduler(n, T) }},
		{"pd-offsite", func() (core.Scheduler, error) { return offsite.NewScheduler(n, T) }},
		{"pd-shared-k2", func() (core.Scheduler, error) { return shared.NewScheduler(n, T, shared.WithPoolSize(2)) }},
		{"pd-shared-k4", func() (core.Scheduler, error) { return shared.NewScheduler(n, T, shared.WithPoolSize(4)) }},
	} {
		for _, rolling := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/rolling=%v", tc.name, rolling), func(t *testing.T) {
				oracle, err := tc.make()
				if err != nil {
					t.Fatal(err)
				}
				want, err := simulate.Run(inst, oracle)
				if err != nil {
					t.Fatal(err)
				}
				sched, err := tc.make()
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(Config{Network: n, Scheduler: sched, Horizon: T, Rolling: rolling})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { shutdownEngine(t, e) })
				for i, req := range inst.Trace {
					for e.Slot() < req.Arrival {
						e.Tick()
					}
					got := submit(t, e, AdmissionRequest{VNF: req.VNF, Reliability: req.Reliability,
						Arrival: req.Arrival, Duration: req.Duration, Payment: req.Payment})
					w := want.Decisions[i]
					same := got.Admitted == w.Admitted &&
						slices.Equal(got.Placement.Assignments, w.Placement.Assignments) &&
						(got.Placement.Backup == nil) == (w.Placement.Backup == nil) &&
						(w.Placement.Backup == nil || *got.Placement.Backup == *w.Placement.Backup)
					if !same {
						t.Fatalf("request %d (%+v): engine decided %+v (backup %+v), simulator %+v (backup %+v)",
							i, req, got, got.Placement.Backup, w, w.Placement.Backup)
					}
				}
				if s := e.Stats(); want.Admitted == 0 || int(s.Admitted) != want.Admitted || s.Revenue != want.Revenue {
					t.Errorf("engine admitted %d for revenue %v, simulator %d for %v", s.Admitted, s.Revenue, want.Admitted, want.Revenue)
				}
				t.Logf("%d of %d admitted, revenue %v", want.Admitted, len(inst.Trace), want.Revenue)
			})
		}
	}
}

// TestViewHitRatioSaturated reads the ledger views' hit ratio — loads that
// kept the copy they had, of all loads — in the two regimes of the
// benchmark's pd-onsite workloads: its fleet, a rolling 64-slot window, two
// tokens each deciding half of every slot's requests as one batch. At 256
// requests a slot the ledger is full and almost nothing writes between two
// loads, which is what the cached view is for: at least 0.8 there. At 8 a
// slot about half the requests are admitted and most loads follow a write;
// that ratio is logged, not asserted (DESIGN.md §5, "Ledger views", records it).
func TestViewHitRatioSaturated(t *testing.T) {
	setup := experiments.DefaultSetup()
	setup.Horizon = 64
	inst, err := setup.Instance(20000, setup.H, setup.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                   string
		perSlot, warmUp, slots int
		atLeast                float64
	}{{"saturated", 256, 16, 48, 0.8}, {"steady", 8, 64, 512, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := onsite.NewScheduler(inst.Network, setup.Horizon, onsite.WithCapacityEnforcement())
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{Network: inst.Network, Scheduler: sched, Horizon: setup.Horizon, Rolling: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { shutdownEngine(t, e) })
			half := tc.perSlot / 2
			batches := [2][]AdmissionRequest{make([]AdmissionRequest, half), make([]AdmissionRequest, half)}
			out := [2][]AdmissionResult{make([]AdmissionResult, half), make([]AdmissionResult, half)}
			var before Stats
			for slot, sent := 1, 0; slot <= tc.warmUp+tc.slots; slot++ {
				if slot == tc.warmUp+1 {
					before = e.Stats()
				}
				for k := 0; k < tc.perSlot; k++ {
					r := inst.Trace[sent%len(inst.Trace)]
					sent++
					batches[k%2][k/2] = AdmissionRequest{VNF: r.VNF, Reliability: r.Reliability,
						Arrival: slot, Duration: r.Duration, Payment: r.Payment}
				}
				var wg sync.WaitGroup
				for g := range batches {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := e.SubmitBatch(context.Background(), batches[g], out[g]); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				e.Tick()
			}
			after := e.Stats()
			loads := after.ViewLoads - before.ViewLoads
			copies := after.ViewRefreshes + after.ViewCopies - before.ViewRefreshes - before.ViewCopies
			decided := after.Admitted + after.RejectedTotal() - before.Admitted - before.RejectedTotal()
			ratio := 1 - float64(copies)/float64(loads)
			t.Logf("%d requests a slot: %d of %d admitted (%.3f), %d of %d loads kept their copy (%.3f)",
				tc.perSlot, after.Admitted-before.Admitted, decided, float64(after.Admitted-before.Admitted)/float64(decided),
				loads-copies, loads, ratio)
			if loads < decided || ratio < tc.atLeast {
				t.Errorf("%d loads for %d decisions, hit ratio %.3f, want a load per decision and at least %.2f", loads, decided, ratio, tc.atLeast)
			}
		})
	}
}
