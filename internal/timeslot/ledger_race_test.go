package timeslot

import (
	"math/rand"
	"sync"
	"testing"
)

// TestLedgerConcurrentReserveWindowNeverOversubscribes hammers one ledger
// with parallel ReserveWindow/Release cycles on overlapping windows and
// verifies that no (cloudlet, slot) cell ever exceeds cap_j. Run under
// -race this also proves the locking discipline.
func TestLedgerConcurrentReserveWindowNeverOversubscribes(t *testing.T) {
	const (
		cloudlets = 4
		capacity  = 20
		horizon   = 16
		workers   = 8
		rounds    = 400
	)
	caps := make([]int, cloudlets)
	for j := range caps {
		caps[j] = capacity
	}
	l, err := New(caps, horizon)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			type held struct{ cloudlet, start, duration, units int }
			var mine []held
			for i := 0; i < rounds; i++ {
				j := rng.Intn(cloudlets)
				start := 1 + rng.Intn(horizon)
				duration := 1 + rng.Intn(horizon-start+1)
				units := 1 + rng.Intn(5)
				ok, err := l.ReserveWindow(j, start, duration, units)
				if err != nil {
					t.Errorf("ReserveWindow: %v", err)
					return
				}
				if ok {
					mine = append(mine, held{j, start, duration, units})
				}
				// Release roughly half of what we hold as we go, so the
				// ledger keeps churning near capacity.
				if len(mine) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(mine))
					h := mine[k]
					if err := l.Release(h.cloudlet, h.start, h.duration, h.units); err != nil {
						t.Errorf("Release: %v", err)
						return
					}
					mine[k] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
				// Interleave reads to exercise the RLock paths.
				_ = l.ResidualWindow(j, start, duration)
				_ = l.Used(j, start)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	for _, v := range l.Violations() {
		t.Errorf("oversubscribed cell: cloudlet %d slot %d used %d cap %d",
			v.Cloudlet, v.Slot, v.Used, v.Capacity)
	}
	if r := l.MaxViolationRatio(); r > 1 {
		t.Errorf("max violation ratio %v > 1 after concurrent reservations", r)
	}
}

// TestFootprintIsNeverHalfBooked is the guarantee a footprint's one critical
// section adds for concurrent decisions: writers book and release footprints
// that claim the same units on cloudlets 0 and 1 (and nothing else touches
// those two), so in every consistent cut of the ledger the two rows are
// equal slot for slot. A Reader's Load is such a cut; booking the cloudlets
// one lock round each would let it fall between them. Cloudlet 1 is the
// tight one, so refusals land on the second claim too.
func TestFootprintIsNeverHalfBooked(t *testing.T) {
	const (
		horizon = 12
		writers = 4
		rounds  = 600
	)
	l, err := New([]int{40, 9}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				start := 1 + rng.Intn(horizon)
				duration := 1 + rng.Intn(horizon-start+1)
				units := 1 + rng.Intn(4)
				twin := []Claim{{0, units}, {1, units}}
				ok, err := l.ReserveAll(start, duration, twin, false)
				if err != nil {
					t.Errorf("ReserveAll: %v", err)
					return
				}
				if !ok {
					continue
				}
				if err := l.ReleaseAll(start, duration, twin); err != nil {
					t.Errorf("ReleaseAll: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	seen := make(chan int, 1)
	go func() {
		r := l.NewReader()
		cuts := 0
		for {
			select {
			case <-stop:
				seen <- cuts
				return
			default:
			}
			r.Load(1, horizon)
			for slot := 1; slot <= horizon; slot++ {
				if a, b := 40-r.Residual(0, slot), 9-r.Residual(1, slot); a != b {
					t.Errorf("slot %d: cloudlet 0 holds %d units and cloudlet 1 %d in one cut: a footprint was read half booked", slot, a, b)
					seen <- cuts
					return
				}
			}
			cuts++
		}
	}()
	wg.Wait()
	close(stop)
	if cuts := <-seen; cuts == 0 && !t.Failed() {
		t.Log("the reader never completed a cut while the writers ran")
	}
	for slot := 1; slot <= horizon; slot++ {
		if l.Used(0, slot) != 0 || l.Used(1, slot) != 0 {
			t.Errorf("slot %d not drained: %d, %d", slot, l.Used(0, slot), l.Used(1, slot))
		}
	}
}

// TestLedgerOutOfRangeSentinels pins the documented fail-safe sentinel
// behavior of the read accessors: out-of-range residual reads as "full"
// (0 free), out-of-range usage reads as "empty" (0 used), and the InRange
// helpers are the explicit way to tell the cases apart.
func TestLedgerOutOfRangeSentinels(t *testing.T) {
	l, err := New([]int{5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(0, 1, 4, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ cloudlet, slot int }{
		{-1, 1}, {1, 1}, {0, 0}, {0, 5},
	}
	for _, c := range cases {
		if got := l.Residual(c.cloudlet, c.slot); got != 0 {
			t.Errorf("Residual(%d,%d) = %d, want sentinel 0", c.cloudlet, c.slot, got)
		}
		if got := l.Used(c.cloudlet, c.slot); got != 0 {
			t.Errorf("Used(%d,%d) = %d, want sentinel 0", c.cloudlet, c.slot, got)
		}
		if l.InRange(c.cloudlet, c.slot) {
			t.Errorf("InRange(%d,%d) = true, want false", c.cloudlet, c.slot)
		}
	}
	// Windows leaving the horizon read as full, so schedulers reject them.
	if got := l.ResidualWindow(0, 3, 3); got != 0 {
		t.Errorf("ResidualWindow beyond horizon = %d, want sentinel 0", got)
	}
	if l.WindowInRange(0, 3, 3) {
		t.Error("WindowInRange(0,3,3) = true, want false")
	}
	if !l.WindowInRange(0, 2, 3) {
		t.Error("WindowInRange(0,2,3) = false, want true")
	}
	// In-range reads are unaffected by the sentinel rules.
	if got := l.Residual(0, 2); got != 3 {
		t.Errorf("Residual(0,2) = %d, want 3", got)
	}
	if !l.InRange(0, 2) {
		t.Error("InRange(0,2) = false, want true")
	}
	// ReserveWindow reports refusal and argument errors distinctly.
	if ok, err := l.ReserveWindow(0, 1, 4, 4); err != nil || ok {
		t.Errorf("ReserveWindow over capacity = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := l.ReserveWindow(0, 3, 3, 1); err == nil || ok {
		t.Errorf("ReserveWindow out of horizon = (%v, %v), want (false, ErrBadSlot)", ok, err)
	}
}
