package timeslot

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestNewRollingBasics(t *testing.T) {
	l, err := NewRolling([]int{4, 6}, 8)
	if err != nil {
		t.Fatalf("NewRolling: %v", err)
	}
	if !l.Rolling() {
		t.Fatal("Rolling() = false")
	}
	if l.Base() != 1 || l.Window() != 8 || l.MaxSlot() != 8 {
		t.Fatalf("geometry = base %d window %d max %d, want 1 8 8",
			l.Base(), l.Window(), l.MaxSlot())
	}
	fixed, err := New([]int{4}, 5)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if fixed.Rolling() {
		t.Fatal("fixed ledger reports Rolling() = true")
	}
	if fixed.Base() != 1 || fixed.MaxSlot() != 5 {
		t.Fatalf("fixed geometry = base %d max %d, want 1 5", fixed.Base(), fixed.MaxSlot())
	}
	if err := fixed.Advance(2); !errors.Is(err, ErrFixedHorizon) {
		t.Fatalf("fixed Advance err = %v, want ErrFixedHorizon", err)
	}
}

func TestAdvanceRecyclesDrainedSlots(t *testing.T) {
	l, err := NewRolling([]int{3}, 4)
	if err != nil {
		t.Fatalf("NewRolling: %v", err)
	}
	// Fill slots 1..2, drain them, then advance past them.
	if err := l.Reserve(0, 1, 2, 3); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := l.Release(0, 1, 2, 3); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := l.Advance(3); err != nil {
		t.Fatalf("Advance(3): %v", err)
	}
	if l.Base() != 3 || l.MaxSlot() != 6 {
		t.Fatalf("window = [%d,%d], want [3,6]", l.Base(), l.MaxSlot())
	}
	// Recycled rows serve the entering slots 5 and 6, and start empty.
	for s := 3; s <= 6; s++ {
		if got := l.Residual(0, s); got != 3 {
			t.Fatalf("Residual(0,%d) = %d, want 3 (recycled slot must start empty)", s, got)
		}
	}
	// Retired slots fall out of range: fail-safe sentinels.
	if l.InRange(0, 2) {
		t.Fatal("InRange(0,2) = true after advancing to base 3")
	}
	if got := l.Residual(0, 2); got != 0 {
		t.Fatalf("Residual(0,2) = %d, want 0 sentinel", got)
	}
	if got := l.Used(0, 2); got != 0 {
		t.Fatalf("Used(0,2) = %d, want 0 sentinel", got)
	}
	// Reserving across the new window, including slots that wrapped.
	if err := l.Reserve(0, 5, 2, 1); err != nil {
		t.Fatalf("Reserve in wrapped region: %v", err)
	}
	if got := l.Used(0, 5); got != 1 {
		t.Fatalf("Used(0,5) = %d, want 1", got)
	}
}

func TestAdvanceNoOpAndBackward(t *testing.T) {
	l, _ := NewRolling([]int{2}, 4)
	if err := l.Advance(1); err != nil {
		t.Fatalf("Advance to current base: %v, want no-op nil", err)
	}
	if err := l.Advance(3); err != nil {
		t.Fatalf("Advance(3): %v", err)
	}
	if err := l.Advance(2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("backward Advance err = %v, want ErrBadSlot", err)
	}
	if l.Base() != 3 {
		t.Fatalf("base = %d after refused backward advance, want 3", l.Base())
	}
}

// TestAdvanceStraddlingReservation is the satellite edge case: an advance
// over a reservation straddling the target base retires the drained slots
// before it, stops at its first slot and leaves every row as it was; once
// the reservation is released the window moves on.
func TestAdvanceStraddlingReservation(t *testing.T) {
	l, err := NewRolling([]int{5, 5}, 6)
	if err != nil {
		t.Fatalf("NewRolling: %v", err)
	}
	// Cloudlet 1 holds units over [2,4]; advancing to base 3 would retire
	// slot 2 while it still holds 2 units.
	if err := l.Reserve(1, 2, 3, 2); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	before := l.Clone()
	if err := l.Advance(3); err != nil {
		t.Fatalf("Advance over straddler: %v", err)
	}
	if l.Base() != 2 {
		t.Fatalf("base = %d after advancing over a reservation from 2, want 2", l.Base())
	}
	for j := 0; j < l.Cloudlets(); j++ {
		for s := l.Base(); s <= l.MaxSlot(); s++ {
			if l.Used(j, s) != before.Used(j, s) {
				t.Fatalf("Used(%d,%d) = %d, want %d (an advance must not touch a live row)",
					j, s, l.Used(j, s), before.Used(j, s))
			}
		}
	}
	// Release the straddler; the advance now goes all the way.
	if err := l.Release(1, 2, 3, 2); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := l.Advance(5); err != nil || l.Base() != 5 {
		t.Fatalf("Advance(5) after drain: base %d, %v, want 5", l.Base(), err)
	}
}

// TestReleaseRecycledSlot is the satellite edge case: releasing against a
// slot that Advance recycled must be an addressing error (ErrBadSlot),
// never an underflow against the row now occupying its ring position.
func TestReleaseRecycledSlot(t *testing.T) {
	l, err := NewRolling([]int{4}, 4)
	if err != nil {
		t.Fatalf("NewRolling: %v", err)
	}
	if err := l.Reserve(0, 1, 2, 3); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := l.Release(0, 1, 2, 3); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := l.Advance(3); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	// Put usage on slot 5, which reuses slot 1's ring row. A stale release
	// addressed to slot 1 must not touch it.
	if err := l.Reserve(0, 5, 1, 2); err != nil {
		t.Fatalf("Reserve(5): %v", err)
	}
	err = l.Release(0, 1, 2, 3)
	if !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Release against recycled slot err = %v, want ErrBadSlot", err)
	}
	if errors.Is(err, ErrUnderflow) {
		t.Fatalf("Release against recycled slot reported underflow: %v", err)
	}
	if got := l.Used(0, 5); got != 2 {
		t.Fatalf("Used(0,5) = %d after stale release, want 2 untouched", got)
	}
}

// TestAdvanceConservesReservedUnits is the quickcheck property: random
// reserve/release traffic interleaved with random advances never changes
// the total outstanding units except through Reserve/Release themselves,
// and the ledger's summed usage always equals the model's.
func TestAdvanceConservesReservedUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		window := 4 + rng.Intn(8)
		caps := make([]int, 1+rng.Intn(3))
		for j := range caps {
			caps[j] = 2 + rng.Intn(6)
		}
		l, err := NewRolling(caps, window)
		if err != nil {
			t.Fatalf("NewRolling: %v", err)
		}
		// model[j][slot] mirrors expected absolute-slot usage.
		model := make([]map[int]int, len(caps))
		for j := range model {
			model[j] = map[int]int{}
		}
		type res struct{ j, start, dur, units int }
		var live []res
		total := 0 // outstanding reserved unit-slots
		for op := 0; op < 200; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // reserve
				j := rng.Intn(len(caps))
				dur := 1 + rng.Intn(window)
				start := l.Base() + rng.Intn(window-dur+1)
				units := 1 + rng.Intn(2)
				ok, err := l.ReserveWindow(j, start, dur, units)
				if err != nil {
					t.Fatalf("iter %d op %d ReserveWindow: %v", iter, op, err)
				}
				if ok {
					live = append(live, res{j, start, dur, units})
					for s := start; s < start+dur; s++ {
						model[j][s] += units
					}
					total += dur * units
				}
			case k < 8 && len(live) > 0: // release a random live reservation
				i := rng.Intn(len(live))
				r := live[i]
				if err := l.Release(r.j, r.start, r.dur, r.units); err != nil {
					t.Fatalf("iter %d op %d Release: %v", iter, op, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				for s := r.start; s < r.start+r.dur; s++ {
					model[r.j][s] -= r.units
				}
				total -= r.dur * r.units
			default: // advance to the oldest live start (or +1 if idle)
				target := l.Base() + 1 + rng.Intn(2)
				for _, r := range live {
					if r.start < target {
						target = r.start
					}
				}
				if target > l.Base() {
					if err := l.Advance(target); err != nil {
						t.Fatalf("iter %d op %d Advance(%d): %v", iter, op, target, err)
					}
				}
			}
			// Conservation: summed ledger usage over the live window equals
			// the outstanding total, cell by cell against the model.
			sum := 0
			for j := range caps {
				for s := l.Base(); s <= l.MaxSlot(); s++ {
					u := l.Used(j, s)
					sum += u
					if u != model[j][s] {
						t.Fatalf("iter %d op %d: Used(%d,%d) = %d, model %d",
							iter, op, j, s, u, model[j][s])
					}
				}
			}
			if sum != total {
				t.Fatalf("iter %d op %d: ledger sum %d, outstanding total %d", iter, op, sum, total)
			}
		}
	}
}

// TestFixedRollingOpEquivalence drives identical operation sequences
// (confined to the initial window, no advances) through a fixed and a
// rolling ledger and requires bit-identical results — a rolling ledger
// whose base never moves IS the fixed ledger.
func TestFixedRollingOpEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	caps := []int{3, 5, 4}
	const window = 10
	fixed, err := New(caps, window)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rolling, err := NewRolling(caps, window)
	if err != nil {
		t.Fatalf("NewRolling: %v", err)
	}
	for op := 0; op < 500; op++ {
		j := rng.Intn(len(caps))
		dur := 1 + rng.Intn(window)
		start := 1 + rng.Intn(window-dur+1)
		units := 1 + rng.Intn(3)
		switch rng.Intn(4) {
		case 0:
			okF, errF := fixed.ReserveWindow(j, start, dur, units)
			okR, errR := rolling.ReserveWindow(j, start, dur, units)
			if okF != okR || (errF == nil) != (errR == nil) {
				t.Fatalf("op %d ReserveWindow diverged: fixed (%v,%v) rolling (%v,%v)",
					op, okF, errF, okR, errR)
			}
		case 1:
			errF := fixed.ForceReserve(j, start, dur, units)
			errR := rolling.ForceReserve(j, start, dur, units)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("op %d ForceReserve diverged: %v vs %v", op, errF, errR)
			}
		case 2:
			errF := fixed.Release(j, start, dur, units)
			errR := rolling.Release(j, start, dur, units)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("op %d Release diverged: %v vs %v", op, errF, errR)
			}
		case 3:
			if f, r := fixed.ResidualWindow(j, start, dur), rolling.ResidualWindow(j, start, dur); f != r {
				t.Fatalf("op %d ResidualWindow diverged: %d vs %d", op, f, r)
			}
		}
		for jj := range caps {
			for s := 1; s <= window; s++ {
				if f, r := fixed.Used(jj, s), rolling.Used(jj, s); f != r {
					t.Fatalf("op %d: Used(%d,%d) fixed %d rolling %d", op, jj, s, f, r)
				}
			}
		}
	}
	if f, r := fixed.Utilization(), rolling.Utilization(); f != r {
		t.Fatalf("Utilization diverged: %v vs %v", f, r)
	}
	if f, r := fixed.MaxViolationRatio(), rolling.MaxViolationRatio(); f != r {
		t.Fatalf("MaxViolationRatio diverged: %v vs %v", f, r)
	}
	vf, vr := fixed.Violations(), rolling.Violations()
	if len(vf) != len(vr) {
		t.Fatalf("Violations diverged: %d vs %d", len(vf), len(vr))
	}
	for i := range vf {
		if vf[i] != vr[i] {
			t.Fatalf("Violations[%d] diverged: %+v vs %+v", i, vf[i], vr[i])
		}
	}
}

// TestRollingCloneIndependent checks Clone copies geometry and rows.
func TestRollingCloneIndependent(t *testing.T) {
	l, _ := NewRolling([]int{3}, 4)
	if err := l.Reserve(0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Advance(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(0, 4, 2, 2); err != nil {
		t.Fatal(err)
	}
	c := l.Clone()
	if !c.Rolling() || c.Base() != 3 || c.MaxSlot() != 6 {
		t.Fatalf("clone geometry = rolling %v [%d,%d], want true [3,6]", c.Rolling(), c.Base(), c.MaxSlot())
	}
	if got := c.Used(0, 4); got != 2 {
		t.Fatalf("clone Used(0,4) = %d, want 2", got)
	}
	if err := c.Reserve(0, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Used(0, 3); got != 0 {
		t.Fatalf("mutating clone leaked into original: Used(0,3) = %d", got)
	}
}

// TestRollingConcurrentAdvance races reservations, releases, and advances
// under -race: reservations always target the live window re-read per
// attempt, and the advancer only moves past drained slots.
func TestRollingConcurrentAdvance(t *testing.T) {
	const window = 16
	l, err := NewRolling([]int{8, 8}, window)
	if err != nil {
		t.Fatalf("NewRolling: %v", err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				base := l.Base()
				j := rng.Intn(2)
				dur := 1 + rng.Intn(4)
				start := base + rng.Intn(window-dur+1)
				ok, err := l.ReserveWindow(j, start, dur, 1)
				if err != nil && !errors.Is(err, ErrBadSlot) {
					t.Errorf("ReserveWindow: %v", err)
					return
				}
				if ok {
					if err := l.Release(j, start, dur, 1); err != nil && !errors.Is(err, ErrBadSlot) {
						t.Errorf("Release: %v", err)
						return
					}
				}
			}
		}(int64(g + 1))
	}
	// Advancer: move the base forward whenever the front has drained.
	for advanced := 0; advanced < 3*window; {
		base := l.Base()
		if err := l.Advance(base + 1); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if l.Base() != base {
			advanced++
		}
	}
	close(stop)
	wg.Wait()
}
