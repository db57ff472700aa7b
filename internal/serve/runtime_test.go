package serve

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/onsite"
	"revnf/internal/repair"
	"revnf/internal/shared"
	"revnf/internal/slo"
	"revnf/internal/trace"
)

func newOnsiteScheduler(t *testing.T, n *core.Network, horizon int) *onsite.Scheduler {
	t.Helper()
	s, err := onsite.NewScheduler(n, horizon, onsite.WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shutdownEngine(t testing.TB, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func testInjector(t *testing.T, n *core.Network, rates []float64, seed int64) *chaos.Injector {
	t.Helper()
	inj, err := chaos.New(chaos.Config{
		Network:       n,
		CloudletMTTR:  2,
		InstanceMTTR:  2,
		CloudletRates: rates,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// sloAccount, sloStats and estimate read the failure runtime under the
// engine lock, as every reader of it does.
func sloAccount(e *Engine, id int) (slo.Entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runtime.slo.Get(id)
}

func sloStats(e *Engine) slo.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runtime.slo.Stats()
}

func estimate(e *Engine, j int) (reliability, observations float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runtime.est.CloudletReliability(j), e.runtime.est.Observations(j)
}

func TestChaosConfigValidation(t *testing.T) {
	n := testNetwork()

	// Cloudlet-count mismatch between injector and served network.
	small := &core.Network{
		Catalog:   n.Catalog,
		Cloudlets: n.Cloudlets[:1],
	}
	smallInj := testInjector(t, small, nil, 1)
	sched := newOnsiteScheduler(t, n, 10)
	_, err := New(Config{Network: n, Scheduler: sched, Horizon: 10, Chaos: smallInj})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("mismatched injector: err = %v, want ErrBadConfig", err)
	}
}

// TestRuntimeDisabledAccessors: a chaos-free engine reports the runtime
// as absent everywhere.
func TestRuntimeDisabledAccessors(t *testing.T) {
	e := newTestEngine(t, 10)
	e.mu.Lock()
	rt := e.runtime
	e.mu.Unlock()
	if rt != nil {
		t.Fatal("failure runtime built without chaos")
	}
	if st := e.RepairStats(); st != (repair.Stats{}) {
		t.Fatalf("RepairStats = %+v, want zero", st)
	}
	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "revnfd_chaos_slots_total") {
		t.Fatal("chaos metrics exposed without chaos")
	}
}

// TestRuntimeLifecycle drives an admission through watch, slot scoring,
// and finalize on a near-perfect fleet (no failures at seed 1 within the
// window), checking the SLO account and metrics wiring.
func TestRuntimeLifecycle(t *testing.T) {
	n := testNetwork()
	inj := testInjector(t, n, []float64{0.999999, 0.999999}, 1)
	store := trace.NewStore(64)
	sched := newOnsiteScheduler(t, n, 20)
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 20, Chaos: inj, Traces: store})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)

	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10})
	if !res.Admitted {
		t.Fatalf("not admitted: %+v", res)
	}
	entry, ok := sloAccount(e, res.ID)
	if !ok || entry.Required != 0.9 || entry.WindowSlots != 3 {
		t.Fatalf("SLO account = %+v, %v", entry, ok)
	}
	if entry.Provisioned < 0.9 {
		t.Fatalf("provisioned %v below requirement", entry.Provisioned)
	}

	// Window [1,3]: ticks to slots 2 and 3 score slots 2 and 3; the tick
	// to slot 4 expires and finalizes (slot 1 predates the first tick, so
	// only 2 slots are observed).
	e.Tick()
	e.Tick()
	entry, _ = sloAccount(e, res.ID)
	if entry.ObservedSlots != 2 || entry.Finalized {
		t.Fatalf("mid-window account = %+v", entry)
	}
	e.Tick()
	entry, _ = sloAccount(e, res.ID)
	if !entry.Finalized || !entry.Met() || entry.Degraded {
		t.Fatalf("finalized account = %+v", entry)
	}
	// The rate estimator saw 3 slots per cloudlet on top of the prior.
	if _, obs := estimate(e, 0); obs != 4+3 {
		t.Fatalf("estimator observations = %v, want prior 4 + 3 slots", obs)
	}
	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"revnfd_chaos_slots_total 3",
		"revnfd_slo_met_total 1",
		"revnfd_slo_missed_total 0",
		"revnfd_estimated_reliability{cloudlet=\"0\"}",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRuntimeRepairsThroughPipeline forces total failure of the placed
// footprint (both cloudlets effectively always down) so every slot opens
// or continues an episode, and checks repairs flow through
// propose/reserve/commit and eventually degrade when the budget runs out
// — with the ledger balanced throughout.
func TestRuntimeRepairsThroughPipeline(t *testing.T) {
	n := testNetwork()
	// Cloudlets nearly always down: alive footprints empty, repairs land
	// (the pipeline still places — catalog rates are what the scheduler
	// sees) but the placement fails again next slot.
	inj := testInjector(t, n, []float64{0.02, 0.02}, 3)
	store := trace.NewStore(64)
	sched := newOnsiteScheduler(t, n, 30)
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 30, Chaos: inj, Traces: store, RepairAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)

	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 12, Payment: 100})
	if !res.Admitted {
		t.Fatalf("not admitted: %+v", res)
	}
	for slot := e.Slot(); slot < 14; slot = e.Tick().Slot {
		// Capacity conservation every slot: the ledger never goes negative
		// and never exceeds capacity, repairs included.
		for j := range n.Cloudlets {
			if r := e.ledger.Residual(j, e.Slot()); r < 0 || r > n.Cloudlets[j].Capacity {
				t.Fatalf("slot %d cloudlet %d residual %d out of [0,%d]", e.Slot(), j, r, n.Cloudlets[j].Capacity)
			}
		}
	}
	entry, ok := sloAccount(e, res.ID)
	if !ok || !entry.Finalized {
		t.Fatalf("account not finalized: %+v, %v", entry, ok)
	}
	rs := e.RepairStats()
	if rs.Episodes == 0 {
		t.Fatal("no failure episodes under 2%-available cloudlets")
	}
	if entry.Met() && entry.Repairs == 0 {
		t.Fatalf("met with zero repairs under constant failure: %+v", entry)
	}
	if !entry.Met() && !entry.Degraded {
		t.Fatalf("missed SLO without degraded mark: %+v", entry)
	}
	// Trace carries the runtime annotations: final reason is one of the
	// runtime outcomes, and the admission attempts are preserved.
	dt, ok := store.Get(res.ID)
	if !ok {
		t.Fatal("trace missing")
	}
	switch dt.FinalReason() {
	case trace.ReasonFailed, trace.ReasonRepaired, trace.ReasonDegraded:
	default:
		t.Fatalf("final reason = %q, want a runtime outcome", dt.FinalReason())
	}
	if !dt.Admitted {
		t.Fatal("runtime events must preserve admitted status")
	}
	// After expiry everything is released: full residual at every slot.
	for j := range n.Cloudlets {
		for slot := 1; slot <= 30; slot++ {
			if r := e.ledger.Residual(j, slot); r != n.Cloudlets[j].Capacity {
				t.Fatalf("cloudlet %d slot %d residual %d after expiry, want %d", j, slot, r, n.Cloudlets[j].Capacity)
			}
		}
	}
}

// TestRuntimeDegradedState checks the degraded placement state is sticky
// and visible through Placement and the health endpoint data.
func TestRuntimeDegradedState(t *testing.T) {
	n := testNetwork()
	inj := testInjector(t, n, []float64{0.02, 0.02}, 5)
	// A scheduler that refuses everything after admission would be ideal;
	// instead exhaust a 1-attempt budget with a full network: admit two
	// placements consuming 8 of 10 units per cloudlet so repairs
	// (make-before-break, needing 4 more units) cannot reserve.
	sched := newOnsiteScheduler(t, n, 20)
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 20, Chaos: inj, RepairAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)

	ids := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 10, Payment: 100})
		if res.Admitted {
			ids = append(ids, res.ID)
		}
	}
	if len(ids) < 2 {
		t.Fatalf("admitted %d, want ≥ 2 to fill capacity", len(ids))
	}
	sawDegraded := false
	for slot := e.Slot(); slot < 11; slot = e.Tick().Slot {
	}
	for _, id := range ids {
		entry, ok := sloAccount(e, id)
		if !ok {
			t.Fatalf("no account for %d", id)
		}
		if entry.Degraded {
			sawDegraded = true
		}
		if !entry.Met() && !entry.Degraded {
			t.Fatalf("placement %d missed SLO without degraded mark: %+v", id, entry)
		}
	}
	if !sawDegraded {
		t.Fatal("no placement degraded under always-down cloudlets and a full fleet")
	}
}

// TestRuntimeDegradedReleasesOnceThenHistory follows degraded placements
// to the end of their windows: with the fleet full and the cloudlets down,
// repairs cannot land, the one-attempt budget runs out, and each placement
// is marked degraded while live. At expiry the primary footprint and the
// pooled backup go back exactly once — a second release would underflow
// the ledger and panic Tick — the record leaves the live index, and the
// history serves the placement with the degraded mark.
func TestRuntimeDegradedReleasesOnceThenHistory(t *testing.T) {
	const horizon = 20
	n := testNetwork()
	inj := testInjector(t, n, []float64{0.02, 0.02}, 5)
	sched, err := shared.NewScheduler(n, horizon, shared.WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: horizon, Chaos: inj, RepairAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)

	// Fill the fleet: payments far above any dual price, so only capacity
	// stops admission.
	var admitted []AdmissionResult
	for i := 0; i < 16; i++ {
		res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 8, Payment: 1e9})
		if res.Admitted {
			if res.Placement.Backup == nil {
				t.Fatalf("placement %d has no pooled backup: %+v", res.ID, res.Placement)
			}
			admitted = append(admitted, res)
		}
	}
	if len(admitted) < 2 || len(admitted) == 16 {
		t.Fatalf("admitted %d of 16: the fleet is not full", len(admitted))
	}

	// Mid-window: degraded placements are live and already say so.
	for e.Slot() < 6 {
		e.Tick()
	}
	var degraded []int
	for _, res := range admitted {
		rec, ok := e.Placement(res.ID)
		if !ok {
			t.Fatalf("placement %d not found mid-window", res.ID)
		}
		if rec.State == StateDegraded {
			degraded = append(degraded, res.ID)
		} else if rec.State != StateActive {
			t.Fatalf("placement %d is %q mid-window", res.ID, rec.State)
		}
	}
	if len(degraded) == 0 {
		t.Fatal("no placement degraded under always-down cloudlets and a full fleet")
	}
	t.Logf("%d admitted, %d degraded mid-window, repairs %+v", len(admitted), len(degraded), e.RepairStats())
	if st := e.Stats(); st.ActivePlacements != len(admitted) || st.Expired != 0 {
		t.Fatalf("mid-window active/expired = %d/%d, want %d/0", st.ActivePlacements, st.Expired, len(admitted))
	}

	// Past the windows (and a few more ticks, each of which would release
	// again if anything were still booked).
	for e.Slot() < 14 {
		e.Tick()
	}
	st := e.Stats()
	if st.ActivePlacements != 0 || st.Expired != uint64(len(admitted)) || st.FiledPlacements != len(admitted) {
		t.Fatalf("after expiry active/expired/filed = %d/%d/%d, want 0/%d/%d",
			st.ActivePlacements, st.Expired, st.FiledPlacements, len(admitted), len(admitted))
	}
	// A degraded mark refiles its record, late: the late map holds every
	// refiled ID, and /metrics says how many.
	var metrics strings.Builder
	if err := e.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if gauge := "revnfd_placement_history_late_ids " + strconv.Itoa(st.LateIDs) + "\n"; st.LateIDs < len(degraded) ||
		st.LateIDs > len(admitted) || !strings.Contains(metrics.String(), gauge) {
		t.Errorf("%d late IDs for %d degraded of %d admitted, or metrics missing %q", st.LateIDs, len(degraded), len(admitted), gauge)
	}
	for j := range n.Cloudlets {
		for slot := 1; slot <= horizon; slot++ {
			if r := e.ledger.Residual(j, slot); r != n.Cloudlets[j].Capacity {
				t.Fatalf("cloudlet %d slot %d residual %d after expiry, want %d", j, slot, r, n.Cloudlets[j].Capacity)
			}
		}
	}
	if g := e.pool.Groups(); g != 0 {
		t.Fatalf("%d backup groups still pooled after every member expired", g)
	}
	e.mu.Lock()
	live := liveRecords(&e.book)
	e.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d records still in the live index after expiry", live)
	}
	isDegraded := make(map[int]bool, len(degraded))
	for _, id := range degraded {
		isDegraded[id] = true
	}
	for _, res := range admitted {
		rec, ok := e.Placement(res.ID)
		if !ok {
			t.Fatalf("placement %d not served from history", res.ID)
		}
		want := StateExpired
		if isDegraded[res.ID] {
			want = StateDegraded
		}
		if rec.State != want {
			t.Errorf("placement %d served from history as %q, want %q", res.ID, rec.State, want)
		}
		if rec.Request.Payment != 1e9 || rec.Request.Duration != 8 || rec.Placement.Backup == nil {
			t.Errorf("placement %d read back from history as %+v", res.ID, rec)
		}
		// (Finalize may degrade an account the controller never gave up on;
		// the converse must not happen.)
		if entry, ok := sloAccount(e, res.ID); !ok || !entry.Finalized || (isDegraded[res.ID] && !entry.Degraded) {
			t.Errorf("placement %d: SLO account %+v, %v", res.ID, entry, ok)
		}
	}
}

// TestRuntimeRepairIsFiled: a repair that lands moves the live record's
// footprint, and the history must follow — what Placement serves after
// expiry is the last footprint the placement held, not the admitted one.
func TestRuntimeRepairIsFiled(t *testing.T) {
	n := testNetwork()
	inj := testInjector(t, n, []float64{0.02, 0.02}, 3)
	sched := newOnsiteScheduler(t, n, 30)
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 30, Chaos: inj, RepairAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)

	res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 12, Payment: 100})
	if !res.Admitted {
		t.Fatalf("not admitted: %+v", res)
	}
	var last PlacementRecord
	for e.Slot() < 12 {
		e.Tick()
		rec, ok := e.Placement(res.ID)
		if !ok {
			t.Fatalf("slot %d: live placement not found", e.Slot())
		}
		last = rec
	}
	if e.RepairStats().Repairs == 0 || last.ReservedFrom == last.Request.Arrival {
		t.Fatalf("no repair landed (stats %+v, reserved from %d): the test exercises nothing", e.RepairStats(), last.ReservedFrom)
	}
	for e.Slot() < 14 {
		e.Tick()
	}
	filed, ok := e.Placement(res.ID)
	if !ok {
		t.Fatal("repaired placement not served from history")
	}
	if filed.State != StateExpired && filed.State != StateDegraded {
		t.Fatalf("state %q after expiry", filed.State)
	}
	filed.State = last.State
	if !sameRecord(filed, last) {
		t.Fatalf("history serves %+v, the live record last read %+v", filed, last)
	}
}

// TestDegradedPlacementsCounter checks that revnfd_degraded_placements_total
// counts a placement when the runtime marks it degraded, not when its
// window closes: on the two seeded chaos runs TestRuntimePin pins, the
// counter is at every slot at least the number of live degraded records,
// and after the drain it equals the SLO tracker's degraded accounts.
func TestDegradedPlacementsCounter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sched   func(n *core.Network, horizon int) (core.Scheduler, error)
		horizon int
		workers int
		rolling bool
		seed    int64
	}{
		{"onsite-fixed", func(n *core.Network, horizon int) (core.Scheduler, error) {
			return onsite.NewScheduler(n, horizon, onsite.WithCapacityEnforcement())
		}, 4 * pinWindow, 2, false, 11},
		{"shared-rolling", func(n *core.Network, horizon int) (core.Scheduler, error) {
			return shared.NewScheduler(n, horizon, shared.WithPoolSize(2))
		}, pinWindow, 1, true, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := pinNetwork()
			sched, err := tc.sched(n, tc.horizon)
			if err != nil {
				t.Fatal(err)
			}
			rates := make([]float64, len(n.Cloudlets))
			for j, cl := range n.Cloudlets {
				rates[j] = cl.Reliability - 0.1
			}
			inj, err := chaos.New(chaos.Config{Network: n, CloudletMTTR: 3, InstanceMTTR: 2, CloudletRates: rates, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{Network: n, Scheduler: sched, Horizon: tc.horizon, Rolling: tc.rolling,
				Workers: tc.workers, Chaos: inj, RepairAttempts: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownEngine(t, e)
			counter := func() int {
				var sb strings.Builder
				if err := e.WriteMetrics(&sb); err != nil {
					t.Fatal(err)
				}
				for _, line := range strings.Split(sb.String(), "\n") {
					if v, ok := strings.CutPrefix(line, "revnfd_degraded_placements_total "); ok {
						n, err := strconv.Atoi(v)
						if err != nil {
							t.Fatal(err)
						}
						return n
					}
				}
				t.Fatal("no revnfd_degraded_placements_total sample")
				return 0
			}
			var ids []int
			maxLive := 0
			for slot := 1; slot <= 4*pinWindow; slot = e.Tick().Slot {
				for i := 0; i < 4; i++ {
					if res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1 + (slot+i)%8, Payment: 100}); res.Admitted {
						ids = append(ids, res.ID)
					}
				}
				e.mu.Lock()
				live := 0
				for _, id := range ids {
					if rec := e.book.liveRecord(id); rec != nil && rec.State == StateDegraded {
						live++
					}
				}
				e.mu.Unlock()
				maxLive = max(maxLive, live)
				if got := counter(); got < live {
					t.Fatalf("slot %d: revnfd_degraded_placements_total %d, %d live degraded placements", slot, got, live)
				}
			}
			if maxLive == 0 {
				t.Fatal("no placement was live and degraded: the run does not exercise the counter")
			}
			for i := 0; i < pinWindow; i++ {
				e.Tick()
			}
			e.mu.Lock()
			closed := e.runtime.slo.Stats().Degraded
			e.mu.Unlock()
			if got := counter(); got != closed {
				t.Errorf("after the drain: revnfd_degraded_placements_total %d, SLO tracker %d degraded", got, closed)
			}
		})
	}
}
