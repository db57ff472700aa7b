package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/onsite"
	"revnf/internal/trace"
)

// goldenEngine builds a serial engine with tracing wired through both the
// engine and the scheduler, in fixed or rolling mode, over a fresh copy
// of the two-cloudlet test network.
func goldenEngine(t *testing.T, horizon int, rolling bool) (*Engine, *trace.Store) {
	t.Helper()
	n := testNetwork()
	store := trace.NewStore(4096)
	sched, err := onsite.NewScheduler(n, horizon,
		onsite.WithCapacityEnforcement(), onsite.WithRecorder(store))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: horizon,
		Rolling: rolling, Traces: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownEngine(t, e) })
	return e, store
}

// TestRollingFixedGoldenEquivalence is the tentpole's correctness anchor:
// for any request stream whose windows fit inside the live window, the
// rolling engine must produce bit-identical decisions, payments, and
// decision traces to the fixed-horizon engine. The stream mixes admits,
// price-outs, capacity pressure, and horizon rejections; both engines see
// it verbatim on the same manual clock.
func TestRollingFixedGoldenEquivalence(t *testing.T) {
	const (
		T           = 24
		submitSlots = 19 // + max duration 5 stays inside [1, T]
		perSlot     = 5
	)
	fixed, fixedStore := goldenEngine(t, T, false)
	rolling, rollingStore := goldenEngine(t, T, true)

	// Deterministic stream: durations 1..5, reliability alternating, and a
	// low-payment request each slot that the dual prices should squeeze out
	// once congestion builds.
	var ids []int
	for slot := 1; slot <= submitSlots; slot++ {
		for i := 0; i < perSlot; i++ {
			ar := AdmissionRequest{
				VNF:         0,
				Reliability: 0.9,
				Duration:    1 + (slot*3+i*7)%5,
				Payment:     40 + float64((slot*11+i*5)%60),
			}
			if i == perSlot-1 {
				ar.Payment = 0.5 // priced out once λ > 0
			}
			if i%2 == 1 {
				ar.Reliability = 0.95
			}
			fr := submit(t, fixed, ar)
			rr := submit(t, rolling, ar)
			if fr.ID != rr.ID {
				t.Fatalf("slot %d req %d: id diverged fixed=%d rolling=%d", slot, i, fr.ID, rr.ID)
			}
			if fr.Admitted != rr.Admitted || fr.Reason != rr.Reason || fr.Slot != rr.Slot {
				t.Fatalf("slot %d req %d: decision diverged\nfixed:   %+v\nrolling: %+v", slot, i, fr, rr)
			}
			if fmt.Sprintf("%+v", fr.Placement) != fmt.Sprintf("%+v", rr.Placement) {
				t.Fatalf("slot %d req %d: placement diverged\nfixed:   %+v\nrolling: %+v",
					slot, i, fr.Placement, rr.Placement)
			}
			ids = append(ids, fr.ID)
		}
		fixed.Tick()
		rolling.Tick()
	}
	// The rolling base advanced as early placements drained (that is the
	// point of the mode) while every decision above still matched the fixed
	// engine bit for bit: advancing never touches live-slot state.
	if base := rolling.WindowBase(); base <= 1 || base > rolling.Slot() {
		t.Fatalf("rolling base %d after %d slots, want in (1, %d]", base, rolling.Slot(), rolling.Slot())
	}

	// Payments: the summed objective must match bit-for-bit.
	fs, rs := fixed.Stats(), rolling.Stats()
	if fs.Admitted != rs.Admitted || fs.Revenue != rs.Revenue || fs.Expired != rs.Expired {
		t.Fatalf("stats diverged: fixed admitted=%d revenue=%v expired=%d, rolling admitted=%d revenue=%v expired=%d",
			fs.Admitted, fs.Revenue, fs.Expired, rs.Admitted, rs.Revenue, rs.Expired)
	}
	for reason, count := range fs.Rejections {
		if rs.Rejections[reason] != count {
			t.Fatalf("rejections[%q]: fixed %d rolling %d", reason, count, rs.Rejections[reason])
		}
	}

	// Traces: every decision's full trace — request metadata, each Propose
	// attempt with per-cloudlet candidates and dual costs, and the final
	// outcome — must be byte-identical under JSON encoding.
	for _, id := range ids {
		ft, fok := fixedStore.Get(id)
		rt, rok := rollingStore.Get(id)
		if !fok || !rok {
			t.Fatalf("trace %d: fixed ok=%v rolling ok=%v", id, fok, rok)
		}
		fj, err := json.Marshal(ft)
		if err != nil {
			t.Fatal(err)
		}
		rj, err := json.Marshal(rt)
		if err != nil {
			t.Fatal(err)
		}
		if string(fj) != string(rj) {
			t.Fatalf("trace %d diverged\nfixed:   %s\nrolling: %s", id, fj, rj)
		}
	}

	// Same λ surface over the still-live slots, bit for bit (retired slots
	// read the zero sentinel on the rolling side and are not compared).
	fl := fixed.sched.(core.LambdaReader)
	rl := rolling.sched.(core.LambdaReader)
	for j := 0; j < 2; j++ {
		for s := rolling.WindowBase(); s <= T; s++ {
			if fv, rv := fl.Lambda(j, s), rl.Lambda(j, s); fv != rv {
				t.Fatalf("lambda(%d,%d): fixed %v rolling %v", j, s, fv, rv)
			}
		}
	}
}

// TestRollingOutlivesFixedHorizon is the divergence counterpart of the
// golden test: once the clock passes slot T - d the fixed engine rejects
// every new window for the horizon while the rolling engine keeps
// admitting forever.
func TestRollingOutlivesFixedHorizon(t *testing.T) {
	const T = 10
	fixed, _ := goldenEngine(t, T, false)
	rolling, _ := goldenEngine(t, T, true)
	for fixed.Slot() < T {
		fixed.Tick()
		rolling.Tick()
	}
	ar := AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 50}
	if fr := submit(t, fixed, ar); fr.Admitted || fr.Reason != ReasonHorizon {
		t.Fatalf("fixed engine at slot %d admitted a window past T: %+v", fixed.Slot(), fr)
	}
	rr := submit(t, rolling, ar)
	if !rr.Admitted {
		t.Fatalf("rolling engine at slot %d rejected an in-window request: %+v", rolling.Slot(), rr)
	}
	if base := rolling.WindowBase(); base != T {
		t.Fatalf("rolling base = %d at slot %d, want %d", base, rolling.Slot(), T)
	}
}

// TestSoakRollingHorizon is the continuous-operation acceptance soak: a
// rolling engine with chaos enabled runs more than five window lengths,
// proving slot recycling, λ aging, placement expiry, and repair all keep
// working past the old horizon. After every advance the freshly exposed
// far-edge slots must be at full capacity — recycled rows were drained
// before reuse — and at the end every account finalizes and the live
// window drains completely.
func TestSoakRollingHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("long-window rolling soak; skipped with -short")
	}
	const (
		window      = 40
		submitSlots = 220 // 5.5 window lengths
		perSlot     = 6
	)
	n := soakNetwork()
	inj, err := chaos.New(chaos.Config{
		Network:       n,
		CloudletMTTR:  4,
		InstanceMTTR:  2,
		CloudletRates: soakRates(n),
		Seed:          2027,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := trace.NewStore(8192)
	sched := newOnsiteScheduler(t, n, window)
	e, err := New(Config{
		Network: n, Scheduler: sched, Horizon: window, Rolling: true,
		Chaos: inj, RepairAttempts: 3, Traces: store, QueueSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)

	var admitted []int
	prevBase := e.WindowBase()
	for slot := 1; slot <= submitSlots; slot = e.Tick().Slot {
		// Recycling invariant: slots that entered the window on this tick
		// were recycled from drained rows, so before this slot's traffic
		// they are at full capacity.
		base := e.WindowBase()
		if base < prevBase {
			t.Fatalf("slot %d: window base went backward %d -> %d", slot, prevBase, base)
		}
		if base > slot {
			t.Fatalf("slot %d: window base %d ran ahead of the clock", slot, base)
		}
		for fresh := prevBase + window; fresh <= base+window-1; fresh++ {
			for j, cl := range n.Cloudlets {
				if r := e.ledger.Residual(j, fresh); r != cl.Capacity {
					t.Fatalf("slot %d: recycled slot %d cloudlet %d residual %d, want full %d",
						slot, fresh, j, r, cl.Capacity)
				}
			}
		}
		prevBase = base
		for i := 0; i < perSlot; i++ {
			res := submit(t, e, AdmissionRequest{
				VNF:         0,
				Reliability: 0.9,
				Duration:    1 + (slot+i)%5,
				Payment:     100,
			})
			if res.Admitted {
				admitted = append(admitted, res.ID)
			}
		}
		// Live-repair invariant, exactly as in the fixed soak.
		for j, cl := range n.Cloudlets {
			if r := e.ledger.Residual(j, slot); r < 0 || r > cl.Capacity {
				t.Fatalf("slot %d cloudlet %d residual %d out of [0,%d]", slot, j, r, cl.Capacity)
			}
		}
	}
	// Drain: no more traffic; every open window ends within `window` slots.
	for i := 0; i < window+5; i++ {
		e.Tick()
	}

	if len(admitted) < 800 {
		t.Fatalf("admitted %d placements, want ≥ 800 for a meaningful soak", len(admitted))
	}
	if base := e.WindowBase(); base <= submitSlots {
		t.Fatalf("window base %d after drain, want past the submission epoch %d (5x the window)", base, submitSlots)
	}

	ss := sloStats(e)
	if ss.Finalized != len(admitted) || ss.Tracked != 0 {
		t.Fatalf("SLO accounts: %d finalized, %d open; want %d finalized, 0 open",
			ss.Finalized, ss.Tracked, len(admitted))
	}
	for _, id := range admitted {
		entry, ok := sloAccount(e, id)
		if !ok || !entry.Finalized {
			t.Fatalf("placement %d not finalized: %+v %v", id, entry, ok)
		}
		if !entry.Met() && !entry.Degraded {
			t.Fatalf("placement %d missed its SLO without a degraded mark: %+v", id, entry)
		}
	}

	rs := e.RepairStats()
	if rs.Repairs == 0 {
		t.Fatal("rolling soak produced zero repairs; injection too weak to exercise the pipeline")
	}
	if int(rs.Repairs) != ss.Repairs {
		t.Fatalf("controller counted %d repairs, SLO tracker %d", rs.Repairs, ss.Repairs)
	}

	// The whole live window is drained back to full capacity.
	base := e.WindowBase()
	for j, cl := range n.Cloudlets {
		for s := base; s <= base+window-1; s++ {
			if r := e.ledger.Residual(j, s); r != cl.Capacity {
				t.Fatalf("cloudlet %d slot %d residual %d after drain, want %d", j, s, r, cl.Capacity)
			}
		}
	}

	// The window gauges expose the advanced base.
	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), fmt.Sprintf("revnfd_window_base %d", base)) {
		t.Errorf("metrics missing revnfd_window_base %d", base)
	}
	if !strings.Contains(sb.String(), fmt.Sprintf("revnfd_window_size %d", window)) {
		t.Errorf("metrics missing revnfd_window_size %d", window)
	}
}

// TestSoakRollingHorizonSharded races concurrent sharded submissions
// against the advancing window: under -race this is the rolling mode's
// data-race check. Ticks interleave with in-flight proposals, so commits
// can land on a base the ledger is about to retire; the engine must
// absorb those as conflicts or deferred advances, never as corruption.
func TestSoakRollingHorizonSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("long-window rolling soak; skipped with -short")
	}
	const (
		window   = 30
		runSlots = 160 // > 5 window lengths
	)
	n := soakNetwork()
	inj, err := chaos.New(chaos.Config{
		Network:       n,
		CloudletMTTR:  3,
		InstanceMTTR:  2,
		CloudletRates: soakRates(n),
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := newOnsiteScheduler(t, n, window)
	e, err := New(Config{
		Network: n, Scheduler: sched, Horizon: window, Rolling: true,
		Workers: 4, Chaos: inj, RepairAttempts: 2, QueueSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)
	if e.Workers() != 4 {
		t.Fatalf("workers = %d, want sharded 4", e.Workers())
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	var admitted []int
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := submitOne(context.Background(), e, AdmissionRequest{
					VNF: 0, Reliability: 0.9, Duration: 1 + (w+i)%4, Payment: 100,
				})
				if err != nil {
					continue // backpressure or shutdown racing the clock
				}
				if res.Admitted {
					mu.Lock()
					admitted = append(admitted, res.ID)
					mu.Unlock()
				}
			}
		}(w)
	}
	for slot := 1; slot < runSlots; slot = e.Tick().Slot {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for i := 0; i < window+5; i++ {
		e.Tick()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(admitted) == 0 {
		t.Fatal("sharded rolling soak admitted nothing")
	}
	if base := e.WindowBase(); base <= runSlots-window {
		t.Fatalf("window base %d after drain, want past %d", base, runSlots-window)
	}
	for _, id := range admitted {
		entry, ok := sloAccount(e, id)
		if !ok {
			t.Fatalf("placement %d has no SLO account", id)
		}
		if !entry.Finalized {
			t.Fatalf("placement %d not finalized: %+v", id, entry)
		}
		if !entry.Met() && !entry.Degraded {
			t.Fatalf("placement %d missed its SLO without a degraded mark: %+v", id, entry)
		}
	}
	base := e.WindowBase()
	for j, cl := range n.Cloudlets {
		for s := base; s <= base+window-1; s++ {
			if r := e.ledger.Residual(j, s); r != cl.Capacity {
				t.Fatalf("cloudlet %d slot %d residual %d after drain, want %d", j, s, r, cl.Capacity)
			}
		}
	}
}

// TestDegradedExpiryPastHorizon is the regression test for the degraded
// expiry bookkeeping, on a timeline a fixed ledger cannot host: the
// placement's window [T-2, T+3] extends past the old horizon T, it is
// marked degraded mid-window by the failure runtime (a capacity-starved
// single-cloudlet fleet makes every repair fail), and at expiry it must
// release its reservation exactly once, keep the degraded mark instead of
// flipping to expired, and unpin the window so the base advances past it.
func TestDegradedExpiryPastHorizon(t *testing.T) {
	const window = 10
	// One cloudlet whose capacity exactly fits one placement (2 instances x
	// demand 2): make-before-break repairs can never fit on top, so the
	// first failure episode burns the repair budget and degrades.
	n := &core.Network{
		Catalog: []core.VNF{{ID: 0, Name: "fw", Demand: 2, Reliability: 0.8}},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: -1, Capacity: 4, Reliability: 0.99},
		},
	}
	inj, err := chaos.New(chaos.Config{
		Network:       n,
		CloudletMTTR:  2,
		InstanceMTTR:  2,
		CloudletRates: []float64{0.5}, // down half the time: failure guaranteed fast
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := newOnsiteScheduler(t, n, window)
	e, err := New(Config{
		Network: n, Scheduler: sched, Horizon: window, Rolling: true,
		Chaos: inj, RepairAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)

	// Walk the clock to slot window-2 so the admitted window [window-2,
	// window+3] reaches past the old fixed horizon.
	for e.Slot() < window-2 {
		e.Tick()
	}
	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 6, Payment: 100})
	if !res.Admitted {
		t.Fatalf("placement spanning past the old horizon rejected in rolling mode: %+v", res)
	}
	arrival := res.Slot
	end := arrival + 5
	if end <= window {
		t.Fatalf("test bug: window [%d,%d] does not extend past T=%d", arrival, end, window)
	}

	// Run out the window. The chaos injector takes the only cloudlet down
	// within a few slots; the repair cannot fit; the placement degrades.
	for e.Slot() <= end {
		e.Tick()
	}
	rec, ok := e.Placement(res.ID)
	if !ok {
		t.Fatalf("placement %d vanished", res.ID)
	}
	if rec.State != StateDegraded {
		t.Fatalf("placement state %q after expiry, want %q (chaos too weak? seed drifted?)",
			rec.State, StateDegraded)
	}
	entry, ok := sloAccount(e, res.ID)
	if !ok || !entry.Finalized || !entry.Degraded {
		t.Fatalf("SLO account not finalized degraded: %+v %v", entry, ok)
	}
	if got := e.Stats().Expired; got != 1 {
		t.Fatalf("expired count = %d, want exactly 1 (release exactly once)", got)
	}

	// The reservation was released exactly once: the live window is back at
	// full capacity, and further ticks must not release again (a second
	// release would underflow and panic).
	check := func() {
		base := e.WindowBase()
		for s := base; s <= base+window-1; s++ {
			if r := e.ledger.Residual(0, s); r != 4 {
				t.Fatalf("slot %d residual %d, want full 4", s, r)
			}
		}
	}
	check()
	for i := 0; i < 3; i++ {
		e.Tick()
	}
	check()
	if base := e.WindowBase(); base <= end {
		t.Fatalf("window base %d still pinned by the expired degraded placement (end %d)", base, end)
	}

	// Continuous operation past the degraded epoch: the next request admits.
	res2 := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 100})
	if !res2.Admitted {
		t.Fatalf("post-degradation request rejected: %+v", res2)
	}
}

// tickingCommit is pd-onsite whose Commit, once armed, ticks the engine
// after committing: the decision it commits was reserved before that tick
// and is filed after it, a straggler the tick's expiry scan cannot see.
type tickingCommit struct {
	*onsite.Scheduler
	e     *Engine
	armed bool
}

func (s *tickingCommit) Commit(req core.Request, p core.Placement) {
	s.Scheduler.Commit(req, p)
	if s.armed {
		s.armed = false
		s.e.Tick()
	}
}

// TestRollingWindowAdvancesToStraggler pins who decides how far the window
// moves: the ledger, up to the first row still holding units. A straggler
// reserved from slot 3 and filed after the tick to 4 that expires the only
// other placement stops the base at 3, not at 1, and the next tick, which
// expires the straggler too, reaches the clock.
func TestRollingWindowAdvancesToStraggler(t *testing.T) {
	n := testNetwork()
	sched := &tickingCommit{Scheduler: newOnsiteScheduler(t, n, 8)}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 8, Rolling: true})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)
	sched.e = e

	if a := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 3, Payment: 100}); !a.Admitted {
		t.Fatalf("A over [1,3] rejected: %+v", a)
	}
	e.Tick()
	e.Tick()
	if e.Slot() != 3 || e.WindowBase() != 1 {
		t.Fatalf("slot %d base %d, want slot 3 with A holding the base at 1", e.Slot(), e.WindowBase())
	}
	sched.armed = true
	b := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: 3, Duration: 2, Payment: 100})
	if !b.Admitted || e.Slot() != 4 {
		t.Fatalf("B over [3,4]: %+v at slot %d, want admitted with the clock at 4", b, e.Slot())
	}
	if base := e.WindowBase(); base != 3 {
		t.Fatalf("window base %d after A expired under the straggler B, want B's first slot 3", base)
	}
	if rec, ok := e.Placement(b.ID); !ok || rec.State != StateActive || rec.ReservedFrom != 3 {
		t.Fatalf("B = %+v, %v, want live from 3", rec, ok)
	}
	e.Tick()
	if base := e.WindowBase(); base != 5 {
		t.Fatalf("window base %d after B expired at slot 5, want 5", base)
	}
}
