package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"revnf/internal/core"
)

// plainScheduler implements only the serialized core.Scheduler contract,
// not core.TwoPhaseScheduler.
type plainScheduler struct{}

func (plainScheduler) Name() string        { return "plain" }
func (plainScheduler) Scheme() core.Scheme { return core.OnSite }
func (plainScheduler) Decide(core.Request, core.CapacityView) (core.Placement, bool) {
	return core.Placement{}, false
}

// TestShardedDegradesToSerial checks the graceful fallback: Workers > 1
// with a scheduler that cannot propose concurrently must run serial and
// report it.
func TestShardedDegradesToSerial(t *testing.T) {
	e, err := New(Config{Network: testNetwork(), Scheduler: plainScheduler{}, Horizon: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = e.Shutdown(context.Background())
	}()
	if got := e.Workers(); got != 1 {
		t.Fatalf("Workers() = %d after degradation, want 1", got)
	}
	res, err := e.Submit(context.Background(), AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 2, Payment: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Reason != ReasonDeclined {
		t.Fatalf("degraded engine decision = %+v, want declined", res)
	}
	if s := e.Stats(); s.Workers != 1 || s.InFlight != 0 {
		t.Fatalf("Stats Workers=%d InFlight=%d, want 1 and 0", s.Workers, s.InFlight)
	}
}

// blindScheduler is a two-phase scheduler that always proposes the full
// capacity of cloudlet 0 without consulting the view, so a second
// overlapping admission is guaranteed to lose the ledger reservation.
type blindScheduler struct{}

func (blindScheduler) Name() string        { return "blind" }
func (blindScheduler) Scheme() core.Scheme { return core.OnSite }
func (blindScheduler) Decide(req core.Request, view core.CapacityView) (core.Placement, bool) {
	p, ok := blindScheduler{}.Propose(req, view)
	return p, ok
}
func (blindScheduler) Propose(req core.Request, _ core.CapacityView) (core.Placement, bool) {
	return core.Placement{
		Request:     req.ID,
		Scheme:      core.OnSite,
		Assignments: []core.Assignment{{Cloudlet: 0, Instances: 5}}, // 5×demand 2 = full capacity
	}, true
}
func (blindScheduler) Commit(core.Request, core.Placement) {}
func (blindScheduler) Abort(core.Request, core.Placement)  {}
func (blindScheduler) ConcurrentPropose() bool             { return true }

// TestShardedConflictRejection drives the bounded re-propose loop
// deterministically: once capacity is gone, a proposal that never adapts
// loses every ledger reservation and must come back as ReasonConflict
// with the retries counted.
func TestShardedConflictRejection(t *testing.T) {
	e, err := New(Config{Network: testNetwork(), Scheduler: blindScheduler{}, Horizon: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = e.Shutdown(context.Background())
	}()
	ctx := context.Background()
	first, err := e.Submit(ctx, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 5})
	if err != nil || !first.Admitted {
		t.Fatalf("first submission: %+v, %v", first, err)
	}
	second, err := e.Submit(ctx, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 2, Duration: 3, Payment: 5})
	if err != nil {
		t.Fatal(err)
	}
	if second.Admitted || second.Reason != ReasonConflict {
		t.Fatalf("overlapping submission = %+v, want %s", second, ReasonConflict)
	}
	s := e.Stats()
	if s.ConflictRetries < 3 {
		t.Errorf("ConflictRetries = %d, want ≥ 3 (one per bounded attempt)", s.ConflictRetries)
	}
	if s.Rejections[ReasonConflict] != 1 {
		t.Errorf("conflict rejections = %d, want 1", s.Rejections[ReasonConflict])
	}
}

// countingScheduler wraps blindScheduler with call accounting so tests can
// check the Propose/Commit/Abort pairing the engine promises.
type countingScheduler struct {
	blindScheduler
	proposes, commits, aborts atomic.Int64
}

func (c *countingScheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	c.proposes.Add(1)
	return c.blindScheduler.Propose(req, view)
}
func (c *countingScheduler) Commit(core.Request, core.Placement) { c.commits.Add(1) }
func (c *countingScheduler) Abort(core.Request, core.Placement)  { c.aborts.Add(1) }

// TestShardedConflictExhaustion pins down the full exhaustion path: a
// proposal that keeps losing the ledger reservation is re-proposed exactly
// maxAttempts times, every losing Propose is paired with an Abort, no
// Commit happens for the rejected request, and the ledger carries no
// residue from the lost attempts — after the winner expires, usage returns
// to zero.
func TestShardedConflictExhaustion(t *testing.T) {
	sched := &countingScheduler{}
	e, err := New(Config{Network: testNetwork(), Scheduler: sched, Horizon: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = e.Shutdown(context.Background())
	}()
	if e.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2 (sharded mode)", e.Workers())
	}
	ctx := context.Background()
	first, err := e.Submit(ctx, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 2, Payment: 5})
	if err != nil || !first.Admitted {
		t.Fatalf("first submission: %+v, %v", first, err)
	}
	second, err := e.Submit(ctx, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 2, Duration: 2, Payment: 7})
	if err != nil {
		t.Fatal(err)
	}
	if second.Admitted || second.Reason != ReasonConflict {
		t.Fatalf("overlapping submission = %+v, want %s", second, ReasonConflict)
	}
	// Pairing: 1 winning propose+commit, then 3 losing propose+abort.
	if got := sched.proposes.Load(); got != 4 {
		t.Errorf("proposes = %d, want 4 (1 admitted + 3 bounded attempts)", got)
	}
	if got := sched.commits.Load(); got != 1 {
		t.Errorf("commits = %d, want 1 (only the admitted request)", got)
	}
	if got := sched.aborts.Load(); got != 3 {
		t.Errorf("aborts = %d, want 3 (one per lost reservation)", got)
	}
	s := e.Stats()
	if s.ConflictRetries != 3 {
		t.Errorf("ConflictRetries = %d, want 3", s.ConflictRetries)
	}
	// Ledger cleanliness: only the winner's footprint is booked...
	if got := s.CloudletUsed[0]; got != 10 {
		t.Errorf("cloudlet 0 used = %d at slot 1, want 10 (winner's footprint)", got)
	}
	// ...and expiring it drains the ledger completely: a leaked reservation
	// from a lost attempt would leave units behind forever.
	e.Tick() // slot 2
	e.Tick() // slot 3: winner (arrival 1, duration 2) expired
	s = e.Stats()
	if s.Expired != 1 {
		t.Errorf("Expired = %d after winner's window, want 1", s.Expired)
	}
	for j, used := range s.CloudletUsed {
		if used != 0 {
			t.Errorf("cloudlet %d used = %d after expiry, want 0 (no leaked reservations)", j, used)
		}
	}
}

// firstFitScheduler is a two-phase scheduler that trusts its view: it
// proposes the whole of the first cloudlet whose window the view says is
// empty. grab, when set, runs once inside the first Propose, after the view
// was read — the out-of-band reservation a concurrent commit would make.
type firstFitScheduler struct {
	blindScheduler
	grab     func(cloudlet int)
	proposed []int // the cloudlet of each proposal, in order
}

func (s *firstFitScheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	for j := 0; j < 2; j++ {
		if view.ResidualWindow(j, req.Arrival, req.Duration) < view.Capacity(j) {
			continue
		}
		s.proposed = append(s.proposed, j)
		if s.grab != nil {
			s.grab(j)
			s.grab = nil
		}
		return core.Placement{Request: req.ID, Scheme: core.OnSite,
			Assignments: []core.Assignment{{Cloudlet: j, Instances: 5}}}, true
	}
	return core.Placement{}, false
}

// TestShardedRetrySeesTheLostCapacity pins that every conflict retry
// re-loads the worker's view: a decision whose first proposal loses its
// capacity to a reservation made behind its back must see that reservation
// on its second Propose and place elsewhere. Re-proposing against the copy
// that lost would pick the same cloudlet until the attempts ran out.
func TestShardedRetrySeesTheLostCapacity(t *testing.T) {
	sched := &firstFitScheduler{}
	e, err := New(Config{Network: testNetwork(), Scheduler: sched, Horizon: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = e.Shutdown(context.Background())
	}()
	sched.grab = func(cloudlet int) {
		if ok, err := e.ledger.ReserveWindow(cloudlet, 1, 3, 1); !ok || err != nil {
			t.Errorf("out-of-band reservation on cloudlet %d: %v, %v", cloudlet, ok, err)
		}
	}
	res, err := e.Submit(context.Background(), AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted || len(sched.proposed) != 2 || sched.proposed[0] != 0 || sched.proposed[1] != 1 {
		t.Fatalf("decision %+v after proposals on cloudlets %v, want admitted on 1 after losing 0", res, sched.proposed)
	}
	if s := e.Stats(); s.ConflictRetries != 1 || s.CloudletUsed[0] != 1 || s.CloudletUsed[1] != 10 {
		t.Errorf("ConflictRetries = %d, used = %v; want 1 retry, the grabbed unit on cloudlet 0 and the placement on 1",
			s.ConflictRetries, s.CloudletUsed)
	}
}

// TestShardedEngineStress hammers a 4-worker engine from 8 goroutines
// (with a concurrent slot clock) and then audits the books — run it under
// -race. The load is sized so concurrent proposals race for the same
// tight capacity constantly. Afterwards the test rebuilds per-(cloudlet,
// slot) usage from the admitted placements and requires:
//
//   - no slot of any cloudlet was ever oversubscribed (the ledger's
//     all-or-nothing reservation must hold under every interleaving);
//   - every submission was decided exactly once (admissions plus
//     rejections equal submissions, in both the observed results and the
//     engine's counters);
//   - revenue equals the payment sum of the admitted requests.
func TestShardedEngineStress(t *testing.T) {
	const (
		horizon      = 40
		submitters   = 8
		perSubmitter = 300
		workers      = 4
	)
	e := newTestEngine(t, horizon, func(c *Config) {
		c.Workers = workers
		c.QueueSize = 64
	})
	if e.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", e.Workers(), workers)
	}

	type admitted struct {
		arrival, duration int
		payment           float64
		placement         core.Placement
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		admits    []admitted
		decided   int
		rejected  int
		submitErr int
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < perSubmitter; i++ {
				// Goroutine 0 also drives the slot clock, racing Tick's
				// expiry sweep against in-flight decisions.
				if seed == 0 && i%60 == 59 {
					e.Tick()
				}
				duration := 1 + rng.Intn(4)
				slot := e.Slot()
				arrival := slot + rng.Intn(horizon-duration-slot)
				ar := AdmissionRequest{
					VNF:         0,
					Reliability: 0.9 + 0.05*rng.Float64(),
					Arrival:     arrival,
					Duration:    duration,
					Payment:     1 + 9*rng.Float64(),
				}
				res, err := e.Submit(ctx, ar)
				mu.Lock()
				if err != nil {
					submitErr++ // ErrQueueFull under burst is legitimate
				} else {
					decided++
					if res.Admitted {
						admits = append(admits, admitted{
							arrival: arrival, duration: duration,
							payment: ar.Payment, placement: res.Placement,
						})
					} else {
						rejected++
					}
				}
				mu.Unlock()
			}
		}(int64(g))
	}
	wg.Wait()

	// Audit 1: rebuild per-(cloudlet, slot) usage from the admitted
	// placements. Capacity released by expiry is never re-reserved for
	// past slots (stale arrivals are rejected), so summing every admitted
	// window per slot must respect each cloudlet's capacity.
	n := testNetwork()
	demand := n.Catalog[0].Demand
	usage := make([][]int, len(n.Cloudlets))
	for j := range usage {
		usage[j] = make([]int, horizon+1)
	}
	wantRevenue := 0.0
	for _, a := range admits {
		wantRevenue += a.payment
		for _, as := range a.placement.Assignments {
			for s := a.arrival; s < a.arrival+a.duration; s++ {
				usage[as.Cloudlet][s] += as.Units(demand)
			}
		}
	}
	for j, cl := range n.Cloudlets {
		for s := 1; s <= horizon; s++ {
			if usage[j][s] > cl.Capacity {
				t.Errorf("cloudlet %d slot %d oversubscribed: %d units > capacity %d",
					j, s, usage[j][s], cl.Capacity)
			}
		}
	}

	// Audit 2: the engine's counters agree with the observed decisions.
	s := e.Stats()
	if decided+submitErr != submitters*perSubmitter {
		t.Errorf("decided %d + submit errors %d != %d submissions",
			decided, submitErr, submitters*perSubmitter)
	}
	if s.Admitted != uint64(len(admits)) {
		t.Errorf("Stats.Admitted = %d, observed %d admissions", s.Admitted, len(admits))
	}
	if got := s.RejectedTotal(); got != uint64(rejected+submitErr) {
		t.Errorf("Stats rejected %d, observed %d", got, rejected+submitErr)
	}
	// Revenue is a float sum whose accumulation order differs across
	// interleavings; compare with a tolerance, not bit-exactly.
	if !core.FloatEqTol(s.Revenue, wantRevenue, 1e-6) {
		t.Errorf("Stats.Revenue = %v, observed payment sum %v", s.Revenue, wantRevenue)
	}
	if s.QueueDepth != 0 || s.InFlight != 0 {
		t.Errorf("idle engine reports QueueDepth=%d InFlight=%d", s.QueueDepth, s.InFlight)
	}
	t.Logf("admitted %d, rejected %d, conflicts retried %d", len(admits), rejected, s.ConflictRetries)
}
