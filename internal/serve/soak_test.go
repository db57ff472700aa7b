package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/shared"
	"revnf/internal/trace"
)

// soakNetwork is an eight-cloudlet fleet sized so the soak's steady-state
// load uses a modest fraction of capacity: repairs (make-before-break)
// always have room, and degradation comes from pricing or injected
// failure, not from a artificially starved fleet.
func soakNetwork() *core.Network {
	n := &core.Network{
		Catalog: []core.VNF{{ID: 0, Name: "fw", Demand: 2, Reliability: 0.8}},
	}
	for j := 0; j < 8; j++ {
		n.Cloudlets = append(n.Cloudlets, core.Cloudlet{
			ID: j, Node: -1, Capacity: 60,
			// 0.96 .. 0.995: every cloudlet can host a 0.9-requirement
			// placement with two instances.
			Reliability: 0.96 + 0.005*float64(j),
		})
	}
	return n
}

// soakRates returns the injector's true cloudlet rates: each 0.03 below
// catalog, so the daemon provisions optimistically and the estimator has
// a real gap to learn.
func soakRates(n *core.Network) []float64 {
	rates := make([]float64, len(n.Cloudlets))
	for j, cl := range n.Cloudlets {
		rates[j] = cl.Reliability - 0.03
	}
	return rates
}

// TestSoakFailureRuntime is the subsystem's acceptance soak: a seeded
// injector drives cloudlet and instance failures against hundreds of
// admitted placements on the manual clock; every placement must end its
// window meeting its provisioned availability or be explicitly marked
// degraded, repairs must flow through the admission pipeline without
// unbalancing the ledger, and the online rate estimates must converge on
// the injector's true rates.
func TestSoakFailureRuntime(t *testing.T) {
	soakFailureRuntime(t, 0)
}

// TestSoakFailureRuntimeSpilling is the soak on 1 KiB history chunks, so
// the history spills dozens of them while the runtime reads every live
// record each slot: each one is found in memory, and nothing is read back.
func TestSoakFailureRuntimeSpilling(t *testing.T) {
	soakFailureRuntime(t, 1<<10)
}

// soakFailureRuntime runs the acceptance soak on history chunks of chunk
// bytes (0: the default). With chunk set it also checks, slot by slot,
// that every live placement's record is found without the spill file, and
// at the end that at least three chunks spilled.
func soakFailureRuntime(t *testing.T, chunk int) {
	const (
		horizon     = 160
		submitSlots = 150
		perSlot     = 6
	)
	n := soakNetwork()
	inj, err := chaos.New(chaos.Config{
		Network:       n,
		CloudletMTTR:  4,
		InstanceMTTR:  2,
		CloudletRates: soakRates(n),
		Seed:          2026,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := trace.NewStore(4096)
	sched := newOnsiteScheduler(t, n, horizon)
	e, err := New(Config{
		Network: n, Scheduler: sched, Horizon: horizon,
		Chaos: inj, RepairAttempts: 3, Traces: store, QueueSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)
	e.book.chunkSize = chunk

	var admitted []int
	ends := map[int]int{} // admitted ID → the last slot of its window
	for slot := 1; slot <= submitSlots; slot = e.Tick().Slot {
		if chunk != 0 {
			missing := 0
			e.mu.Lock()
			for id, end := range ends {
				if end < slot {
					delete(ends, id)
				} else if e.book.liveRecord(id) == nil {
					missing++
				}
			}
			e.mu.Unlock()
			if missing != 0 {
				t.Fatalf("slot %d: %d live placements not found in memory", slot, missing)
			}
		}
		for i := 0; i < perSlot; i++ {
			res := submit(t, e, AdmissionRequest{
				VNF:         0,
				Reliability: 0.9,
				Duration:    1 + (slot+i)%5,
				Payment:     100,
			})
			if res.Admitted {
				admitted = append(admitted, res.ID)
				ends[res.ID] = slot + (slot+i)%5
			}
		}
		// Ledger invariant under live repairs: residuals stay within
		// [0, capacity] at the current slot.
		for j, cl := range n.Cloudlets {
			if r := e.ledger.Residual(j, slot); r < 0 || r > cl.Capacity {
				t.Fatalf("slot %d cloudlet %d residual %d out of [0,%d]", slot, j, r, cl.Capacity)
			}
		}
	}
	// Drain: advance past every window so all accounts finalize.
	for e.Slot() <= horizon {
		e.Tick()
	}

	if len(admitted) < 500 {
		t.Fatalf("admitted %d placements, want ≥ 500 for a meaningful soak", len(admitted))
	}
	if st := e.Stats(); chunk != 0 && (st.SpilledBytes < 3*chunk || st.SpillErrors != 0) {
		t.Fatalf("%d B spilled with %d errors, want three chunks or more and none", st.SpilledBytes, st.SpillErrors)
	}

	// Acceptance: every placement met its SLO or is explicitly degraded,
	// and degraded ones say so in their decision trace.
	ss := sloStats(e)
	if ss.Finalized != len(admitted) || ss.Tracked != 0 {
		t.Fatalf("SLO accounts: %d finalized, %d open; want %d finalized, 0 open", ss.Finalized, ss.Tracked, len(admitted))
	}
	for _, id := range admitted {
		entry, ok := sloAccount(e, id)
		if !ok || !entry.Finalized {
			t.Fatalf("placement %d not finalized: %+v %v", id, entry, ok)
		}
		if !entry.Met() && !entry.Degraded {
			t.Fatalf("placement %d missed its SLO without a degraded mark: %+v", id, entry)
		}
		if entry.Degraded {
			dt, ok := store.Get(id)
			if !ok {
				t.Fatalf("degraded placement %d has no trace", id)
			}
			if dt.FinalReason() != trace.ReasonDegraded {
				t.Fatalf("degraded placement %d final reason %q, want %q", id, dt.FinalReason(), trace.ReasonDegraded)
			}
		}
	}

	// Repairs happened, all through propose/reserve/commit (the only
	// repair path), and both books agree.
	rs := e.RepairStats()
	if rs.Repairs == 0 {
		t.Fatal("soak produced zero repairs; injection too weak to exercise the pipeline")
	}
	if int(rs.Repairs) != ss.Repairs {
		t.Fatalf("controller counted %d repairs, SLO tracker %d", rs.Repairs, ss.Repairs)
	}

	// The ledger is fully drained: every slot of every cloudlet is back
	// to full capacity, so repairs released exactly what they reserved.
	for j, cl := range n.Cloudlets {
		for slot := 1; slot <= horizon; slot++ {
			if r := e.ledger.Residual(j, slot); r != cl.Capacity {
				t.Fatalf("cloudlet %d slot %d residual %d after drain, want %d", j, slot, r, cl.Capacity)
			}
		}
	}

	// Online estimates converge within 10% of the injector's true rates.
	for j := range n.Cloudlets {
		truth := inj.TrueRate(j)
		got, _ := estimate(e, j)
		if math.Abs(got-truth) > 0.10*truth {
			t.Errorf("cloudlet %d estimate %.4f vs true rate %.4f: off by more than 10%%", j, got, truth)
		}
	}

	// The repairs are visible on /metrics.
	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), fmt.Sprintf("revnfd_repairs_total %d", rs.Repairs)) {
		t.Errorf("metrics missing revnfd_repairs_total %d", rs.Repairs)
	}
	if !strings.Contains(sb.String(), "revnfd_repair_latency_slots_count") {
		t.Error("metrics missing repair latency histogram")
	}
}

// TestSoakFailureRuntimeSharded races concurrent submissions and a poller
// of the read side (metrics, cloudlets, stats, placement lookups and
// health, repair counters) against
// the ticking failure runtime; under -race this is the subsystem's
// data-race check, and the post-drain invariants must hold exactly as in
// the serial soak. The pd-shared leg decides with one token, which the
// repairs of a Tick take too: it is the executable guard of the order
// "worker token, then Engine.mu" — a Tick that took them the other way
// round would deadlock here against a decision holding the token and
// waiting to book.
func TestSoakFailureRuntimeSharded(t *testing.T) {
	t.Run("onsite", func(t *testing.T) {
		soakConcurrent(t, 4, func(n *core.Network, horizon int) core.Scheduler {
			return newOnsiteScheduler(t, n, horizon)
		})
	})
	t.Run("shared", func(t *testing.T) {
		soakConcurrent(t, 1, func(n *core.Network, horizon int) core.Scheduler {
			sched, err := shared.NewScheduler(n, horizon, shared.WithPoolSize(2))
			if err != nil {
				t.Fatal(err)
			}
			return sched
		})
	})
}

func soakConcurrent(t *testing.T, tokens int, newScheduler func(*core.Network, int) core.Scheduler) {
	const horizon = 60
	n := soakNetwork()
	inj, err := chaos.New(chaos.Config{
		Network:       n,
		CloudletMTTR:  3,
		InstanceMTTR:  2,
		CloudletRates: soakRates(n),
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Network: n, Scheduler: newScheduler(n, horizon), Horizon: horizon,
		Workers: 4, Chaos: inj, RepairAttempts: 2, QueueSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)
	if e.Workers() != tokens {
		t.Fatalf("workers = %d at Workers: 4, want %d", e.Workers(), tokens)
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
	// The read side an operator polls: each call must take the locks the
	// ticks and the submitters write under.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.WriteMetrics(io.Discard); err != nil {
				t.Error(err)
				return
			}
			e.Cloudlets()
			e.Stats()
			mu.Lock()
			id := len(admitted)
			if id > 0 {
				id = admitted[id-1]
			}
			mu.Unlock()
			e.Placement(id)
			e.placementHealth(id)
			e.RepairStats()
		}
	}()
	// Tick the failure runtime concurrently with the submitters, pacing
	// the clock so each slot sees real submission traffic.
	for slot := 1; slot < horizon-4; slot = e.Tick().Slot {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for e.Slot() <= horizon {
		e.Tick()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(admitted) == 0 || e.RepairStats().Repairs == 0 {
		t.Fatalf("soak admitted %d placements and repaired %d: too weak to exercise the pipeline",
			len(admitted), e.RepairStats().Repairs)
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
	for j, cl := range n.Cloudlets {
		for slot := 1; slot <= horizon; slot++ {
			if r := e.ledger.Residual(j, slot); r != cl.Capacity {
				t.Fatalf("cloudlet %d slot %d residual %d after drain, want %d", j, slot, r, cl.Capacity)
			}
		}
	}
	if groups := e.pool.Groups(); groups != 0 {
		t.Errorf("%d backup groups still pooled after drain", groups)
	}
}
