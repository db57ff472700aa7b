package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"revnf/internal/baseline"
	"revnf/internal/core"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/shared"
)

// TestShardedDegradesToSerial checks what New makes of a scheduler whose
// proposals may not interleave: it decides with one worker token whatever
// Workers asks, and reports it.
func TestShardedDegradesToSerial(t *testing.T) {
	n := testNetwork()
	pooled, err := shared.NewScheduler(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	random, err := baseline.NewRandomOnsite(n, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []core.Scheduler{pooled, random} {
		if sched.ConcurrentPropose() {
			t.Fatalf("%s reports ConcurrentPropose() = true", sched.Name())
		}
		e, err := New(Config{Network: n, Scheduler: sched, Horizon: 10, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Workers(); got != 1 {
			t.Errorf("%s: Workers() = %d at Workers: 4, want 1", sched.Name(), got)
		}
		res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 2, Payment: 50})
		if !res.Admitted {
			t.Errorf("%s: decision at one token = %+v, want admitted", sched.Name(), res)
		}
		if s := e.Stats(); s.Workers != 1 || s.InFlight != 0 {
			t.Errorf("%s: Stats Workers=%d InFlight=%d, want 1 and 0", sched.Name(), s.Workers, s.InFlight)
		}
		shutdownEngine(t, e)
	}
}

// blindScheduler is a two-phase scheduler that always proposes the full
// capacity of cloudlet 0 without consulting the view, so a second
// overlapping admission is guaranteed to be refused by the ledger.
type blindScheduler struct {
	core.Stateless[core.Request, core.Placement]
}

func (blindScheduler) Name() string        { return "blind" }
func (blindScheduler) Scheme() core.Scheme { return core.OnSite }
func (blindScheduler) Propose(req core.Request, _ core.CapacityView) (core.Placement, bool) {
	return core.Placement{
		Request:     req.ID,
		Scheme:      core.OnSite,
		Assignments: []core.Assignment{{Cloudlet: 0, Instances: 5}}, // 5×demand 2 = full capacity
	}, true
}

// firstFitScheduler is a two-phase scheduler that trusts its view: it
// proposes the whole of the first cloudlet whose window the view says is
// empty. grab, when set, runs inside every Propose, after the view was read
// — the out-of-band reservation a concurrent commit would make. It counts
// its calls so tests can check the Propose/Commit/Abort pairing the engine
// promises.
type firstFitScheduler struct {
	blindScheduler
	cloudlets       int
	grab            func(cloudlet int)
	proposed        []int // the cloudlet of each proposal, in order
	commits, aborts int
}

func (s *firstFitScheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	for j := 0; j < s.cloudlets; j++ {
		if view.ResidualWindow(j, req.Arrival, req.Duration) < view.Capacity(j) {
			continue
		}
		s.proposed = append(s.proposed, j)
		if s.grab != nil {
			s.grab(j)
		}
		return core.Placement{Request: req.ID, Scheme: core.OnSite,
			Assignments: []core.Assignment{{Cloudlet: j, Instances: 5}}}, true
	}
	return core.Placement{}, false
}
func (s *firstFitScheduler) Commit(core.Request, core.Placement) { s.commits++ }
func (s *firstFitScheduler) Abort(core.Request, core.Placement)  { s.aborts++ }

// racedEngine builds a two-token engine over three test cloudlets whose
// scheduler loses one unit of every cloudlet it proposes, the moment it
// proposes it, to a reservation made behind its back over slots [1, 3].
func racedEngine(t *testing.T) (*Engine, *firstFitScheduler) {
	t.Helper()
	n := testNetwork()
	n.Cloudlets = append(n.Cloudlets, core.Cloudlet{ID: 2, Node: -1, Capacity: 10, Reliability: 0.97})
	sched := &firstFitScheduler{cloudlets: len(n.Cloudlets)}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownEngine(t, e) })
	sched.grab = func(cloudlet int) {
		if ok, err := e.ledger.ReserveWindow(cloudlet, 1, 3, 1); !ok || err != nil {
			t.Errorf("out-of-band reservation on cloudlet %d: %v, %v", cloudlet, ok, err)
		}
	}
	return e, sched
}

// TestShardedConflictRejection drives the bounded re-propose loop
// deterministically: a proposal that loses its capacity between the view
// and the reservation on every attempt must come back as ReasonConflict
// with the retries counted — not as overbooked: the view had the room.
func TestShardedConflictRejection(t *testing.T) {
	e, _ := racedEngine(t)
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 5})
	if res.Admitted || res.Reason != ReasonConflict {
		t.Fatalf("raced submission = %+v, want %s", res, ReasonConflict)
	}
	s := e.Stats()
	if s.ConflictRetries != 3 {
		t.Errorf("ConflictRetries = %d, want 3 (one per bounded attempt)", s.ConflictRetries)
	}
	if s.Rejections[ReasonConflict] != 1 || s.Rejections[ReasonOverbooked] != 0 {
		t.Errorf("conflict/overbooked rejections = %d/%d, want 1/0",
			s.Rejections[ReasonConflict], s.Rejections[ReasonOverbooked])
	}
}

// grabbedOffsite is the real off-site primal-dual scheduler with
// firstFitScheduler's hook: grab runs inside every Propose that proposes,
// after the view was read, with the proposal it is about to return.
type grabbedOffsite struct {
	*offsite.Scheduler
	grab func(core.Request, core.Placement)
}

func (s *grabbedOffsite) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	p, ok := s.Scheduler.Propose(req, view)
	if ok {
		s.grab(req, p)
	}
	return p, ok
}

// TestShardedConflictOnSecondCloudlet loses the race on the second cloudlet
// of a two-cloudlet footprint, which the first cloudlet's claim has by then
// passed: every attempt is a conflict retry, the cloudlet whose claim fit
// keeps nothing of it, and the scheduler's prices never move. One token and
// four decide alike.
func TestShardedConflictOnSecondCloudlet(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := testNetwork()
		for id := 2; id < 5; id++ {
			n.Cloudlets = append(n.Cloudlets, core.Cloudlet{ID: id, Node: -1, Capacity: 10, Reliability: 0.97})
		}
		inner, err := offsite.NewScheduler(n, 10)
		if err != nil {
			t.Fatal(err)
		}
		sched := &grabbedOffsite{Scheduler: inner}
		e, err := New(Config{Network: n, Scheduler: sched, Horizon: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		stolen := make([]int, len(n.Cloudlets))
		var firsts []int
		sched.grab = func(req core.Request, p core.Placement) {
			if len(p.Assignments) != 2 {
				t.Fatalf("workers %d: proposal %+v, want a footprint of two cloudlets", workers, p)
			}
			firsts = append(firsts, p.Assignments[0].Cloudlet)
			// All but one unit short of what the second claim needs.
			second := p.Assignments[1]
			take := e.ledger.ResidualWindow(second.Cloudlet, req.Arrival, req.Duration) - second.Units(n.Catalog[req.VNF].Demand) + 1
			if ok, err := e.ledger.ReserveWindow(second.Cloudlet, req.Arrival, req.Duration, take); !ok || err != nil {
				t.Errorf("workers %d: out-of-band reservation on cloudlet %d: %v, %v", workers, second.Cloudlet, ok, err)
			}
			stolen[second.Cloudlet] += take
		}
		res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 50})
		if res.Admitted || res.Reason != ReasonConflict {
			t.Fatalf("workers %d: raced submission = %+v, want %s", workers, res, ReasonConflict)
		}
		s := e.Stats()
		if s.ConflictRetries != 3 || len(firsts) != 3 {
			t.Errorf("workers %d: ConflictRetries = %d over %d proposals, want 3 and 3", workers, s.ConflictRetries, len(firsts))
		}
		for j := range n.Cloudlets {
			for slot := 1; slot <= 10; slot++ {
				want := 0
				if slot <= 3 {
					want = stolen[j]
				}
				if got := e.ledger.Used(j, slot); got != want {
					t.Errorf("workers %d: cloudlet %d slot %d holds %d units, want the %d taken behind the engine's back (first cloudlets of the lost attempts: %v)",
						workers, j, slot, got, want, firsts)
				}
				if l := inner.Lambda(j, slot); l != 0 {
					t.Errorf("workers %d: λ[%d][%d] = %g after three aborted proposals, want 0", workers, j, slot, l)
				}
			}
		}
		shutdownEngine(t, e)
	}
}

// TestShardedConflictExhaustion pins down the full exhaustion path: a
// proposal that keeps losing the ledger reservation is re-proposed exactly
// maxAttempts times, every losing Propose is paired with an Abort, no
// Commit happens for the rejected request, and the ledger carries no
// residue from the lost attempts. A submitter that goes away between
// attempts stops the loop before the next Propose.
func TestShardedConflictExhaustion(t *testing.T) {
	e, sched := racedEngine(t)
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 7})
	if res.Admitted || res.Reason != ReasonConflict {
		t.Fatalf("raced submission = %+v, want %s", res, ReasonConflict)
	}
	// Pairing: 3 losing propose+abort, each on the next untouched cloudlet.
	if got := sched.proposed; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("proposals on cloudlets %v, want [0 1 2] (3 bounded attempts)", got)
	}
	if sched.commits != 0 || sched.aborts != 3 {
		t.Errorf("commits = %d, aborts = %d; want 0 and 3 (one Abort per lost reservation)", sched.commits, sched.aborts)
	}
	s := e.Stats()
	if s.ConflictRetries != 3 {
		t.Errorf("ConflictRetries = %d, want 3", s.ConflictRetries)
	}
	// Ledger cleanliness: only the three out-of-band units are booked; a
	// leaked reservation from a lost attempt would add a whole cloudlet.
	for j, used := range s.CloudletUsed {
		if used != 1 {
			t.Errorf("cloudlet %d used = %d after the lost attempts, want the grabbed unit only", j, used)
		}
	}

	// Cancellation between attempts: the first attempt of a later window
	// loses its race and takes the submitter's context with it.
	ctx, cancel := context.WithCancel(context.Background())
	sched.grab = func(cloudlet int) {
		if ok, err := e.ledger.ReserveWindow(cloudlet, 5, 2, 1); !ok || err != nil {
			t.Errorf("out-of-band reservation on cloudlet %d: %v, %v", cloudlet, ok, err)
		}
		cancel()
	}
	_, err := submitOne(ctx, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 5, Duration: 2, Payment: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("submission canceled after its first attempt: err = %v, want context.Canceled", err)
	}
	if len(sched.proposed) != 4 || sched.aborts != 4 || sched.commits != 0 {
		t.Errorf("%d proposals, %d aborts, %d commits after the canceled submission; want 4, 4, 0",
			len(sched.proposed), sched.aborts, sched.commits)
	}
	if s := e.Stats(); s.Rejections[ReasonCanceled] != 1 || s.ConflictRetries != 4 || s.InFlight != 0 {
		t.Errorf("canceled = %d, ConflictRetries = %d, InFlight = %d; want 1, 4, 0",
			s.Rejections[ReasonCanceled], s.ConflictRetries, s.InFlight)
	}
}

// TestShardedRetrySeesTheLostCapacity pins that every conflict retry
// re-loads the worker's view: a decision whose first proposal loses its
// capacity to a reservation made behind its back must see that reservation
// on its second Propose and place elsewhere. Re-proposing against the copy
// that lost would pick the same cloudlet until the attempts ran out.
func TestShardedRetrySeesTheLostCapacity(t *testing.T) {
	e, sched := racedEngine(t)
	grab := sched.grab
	sched.grab = func(cloudlet int) {
		grab(cloudlet)
		sched.grab = nil
	}
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 5})
	if !res.Admitted || len(sched.proposed) != 2 || sched.proposed[0] != 0 || sched.proposed[1] != 1 {
		t.Fatalf("decision %+v after proposals on cloudlets %v, want admitted on 1 after losing 0", res, sched.proposed)
	}
	if sched.commits != 1 || sched.aborts != 1 {
		t.Errorf("commits = %d, aborts = %d; want 1 and 1", sched.commits, sched.aborts)
	}
	if s := e.Stats(); s.ConflictRetries != 1 || s.CloudletUsed[0] != 1 || s.CloudletUsed[1] != 10 {
		t.Errorf("ConflictRetries = %d, used = %v; want 1 retry, the grabbed unit on cloudlet 0 and the placement on 1",
			s.ConflictRetries, s.CloudletUsed)
	}
}

// stressNetwork is four tight cloudlets: concurrent proposals race for the
// same capacity constantly, and every scheme finds a placement (two of the
// cloudlets together serve an off-site or shared 0.95).
func stressNetwork() *core.Network {
	n := &core.Network{Catalog: []core.VNF{{ID: 0, Name: "fw", Demand: 2, Reliability: 0.8}}}
	for j := 0; j < 4; j++ {
		n.Cloudlets = append(n.Cloudlets, core.Cloudlet{ID: j, Node: -1, Capacity: 10, Reliability: 0.99 - 0.01*float64(j)})
	}
	return n
}

// TestShardedEngineStress hammers the engine from 8 goroutines (with a
// concurrent slot clock) and then audits the books — run it under -race.
// Every scheme runs at one and at four requested tokens over a rolling
// window (pd-shared settles on one either way), pd-onsite over a fixed
// horizon too. Afterwards the test rebuilds per-(cloudlet, slot) usage from
// the admitted placements and requires:
//
//   - no slot of any cloudlet was ever oversubscribed (the ledger's
//     all-or-nothing reservation must hold under every interleaving);
//   - every submission was decided exactly once (admissions plus
//     rejections equal submissions, in both the observed results and the
//     engine's counters);
//   - revenue equals the payment sum of the admitted requests;
//   - once the last window expired, the ledger, the backup pool and the
//     live book are empty.
func TestShardedEngineStress(t *testing.T) {
	schedulers := map[string]func(*core.Network, int) (core.Scheduler, error){
		"onsite": func(n *core.Network, w int) (core.Scheduler, error) {
			return onsite.NewScheduler(n, w, onsite.WithCapacityEnforcement())
		},
		"offsite": func(n *core.Network, w int) (core.Scheduler, error) { return offsite.NewScheduler(n, w) },
		"shared": func(n *core.Network, w int) (core.Scheduler, error) {
			return shared.NewScheduler(n, w, shared.WithPoolSize(2))
		},
	}
	for _, tc := range []struct {
		scheme  string
		workers int
		rolling bool
	}{
		{"onsite", 4, false},
		{"onsite", 1, true}, {"onsite", 4, true},
		{"offsite", 1, true}, {"offsite", 4, true},
		{"shared", 1, true}, {"shared", 4, true},
	} {
		t.Run(fmt.Sprintf("%s/workers=%d/rolling=%v", tc.scheme, tc.workers, tc.rolling), func(t *testing.T) {
			stressEngine(t, schedulers[tc.scheme], tc.workers, tc.rolling)
		})
	}
}

func stressEngine(t *testing.T, newScheduler func(*core.Network, int) (core.Scheduler, error), workers int, rolling bool) {
	const (
		window       = 40
		submitters   = 8
		perSubmitter = 300
		tickEvery    = 20 // of goroutine 0's submissions: 15 ticks in all
		lastSlot     = 1 + perSubmitter/tickEvery + window
	)
	n := stressNetwork()
	sched, err := newScheduler(n, window)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: window, Rolling: rolling, Workers: workers, QueueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownEngine(t, e) })
	want := 1
	if sched.ConcurrentPropose() {
		want = workers
	}
	if e.Workers() != want {
		t.Fatalf("Workers() = %d, want %d", e.Workers(), want)
	}

	type admitted struct {
		arrival, duration int
		// after is the clock once the submission had returned: no earlier than the
		// slot the footprint was booked at.
		after     int
		payment   float64
		placement core.Placement
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
				// expiry sweep and window advance against in-flight
				// decisions.
				if seed == 0 && i%tickEvery == tickEvery-1 {
					e.Tick()
				}
				duration := 1 + rng.Intn(4)
				arrival := e.Slot() + rng.Intn(window/2)
				ar := AdmissionRequest{
					VNF:         0,
					Reliability: 0.9 + 0.05*rng.Float64(),
					Arrival:     arrival,
					Duration:    duration,
					Payment:     20 + 80*rng.Float64(),
				}
				res, err := submitOne(ctx, e, ar)
				after := e.Slot()
				mu.Lock()
				if err != nil {
					submitErr++ // a queue-full refusal under burst is a result, not an error
				} else {
					decided++
					if res.Admitted {
						admits = append(admits, admitted{
							arrival: arrival, duration: duration, after: after,
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
	// placements. A window counts from the slot the clock showed once its
	// submission had returned: everything booked on slot s while the clock was
	// at s or before is still held when the tick to s+1 begins, so those
	// footprints must fit the cloudlet together. (Earlier slots do not
	// count because the clock can overtake a decision — stale is tested
	// against the slot read at its start — and such a straggler books slots
	// already past, after their earlier holders expired.) A backup group
	// holds its one pooled instance on every slot a member covers.
	demand := n.Catalog[0].Demand
	usage := make([][]int, len(n.Cloudlets))
	for j := range usage {
		usage[j] = make([]int, lastSlot+1)
	}
	type groupSlot struct{ group, slot int }
	pooled := map[groupSlot]bool{}
	wantRevenue := 0.0
	for _, a := range admits {
		wantRevenue += a.payment
		for s := max(a.arrival, a.after); s < a.arrival+a.duration; s++ {
			for _, as := range a.placement.Assignments {
				usage[as.Cloudlet][s] += as.Units(demand)
			}
			if b := a.placement.Backup; b != nil && !pooled[groupSlot{b.Group, s}] {
				pooled[groupSlot{b.Group, s}] = true
				usage[b.Cloudlet][s] += demand
			}
		}
	}
	for j, cl := range n.Cloudlets {
		for s, used := range usage[j] {
			if used > cl.Capacity {
				t.Errorf("cloudlet %d slot %d oversubscribed: %d units > capacity %d", j, s, used, cl.Capacity)
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
	t.Logf("admitted %d, rejected %d (%v), conflicts retried %d", len(admits), rejected, s.Rejections, s.ConflictRetries)

	// Audit 3: past the last window nothing is held anywhere.
	for e.Slot() < lastSlot {
		e.Tick()
	}
	e.mu.Lock()
	live, active := liveRecords(&e.book), e.book.active
	e.mu.Unlock()
	if s := e.Stats(); live != 0 || active != 0 || s.Expired != s.Admitted || e.pool.Groups() != 0 {
		t.Errorf("after the last window: %d live records, %d active, %d of %d expired, %d pooled groups; want all drained",
			live, active, s.Expired, s.Admitted, e.pool.Groups())
	}
	for _, cl := range e.Cloudlets() {
		for i, free := range cl.Residual {
			if free != cl.Capacity {
				t.Errorf("cloudlet %d slot %d holds %d units after the last window", cl.ID, cl.FromSlot+i, cl.Capacity-free)
			}
		}
	}
}
