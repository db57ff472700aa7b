package timeslot

import (
	"errors"
	"math/rand"
	"testing"
)

// poolModel mirrors the pool's semantics with naive maps: per group a
// multiset of member windows, from which coverage (and thus the expected
// ledger usage) is recomputed from scratch after every operation.
type poolModel struct {
	units    int
	cloudlet int
	members  map[int][][2]int // group → member windows [start, end]
}

func (m *poolModel) refs(group, slot int) int {
	n := 0
	for _, w := range m.members[group] {
		if slot >= w[0] && slot <= w[1] {
			n++
		}
	}
	return n
}

func (m *poolModel) usedAt(slot int) int {
	used := 0
	for g := range m.members {
		if m.refs(g, slot) > 0 {
			used += m.units
		}
	}
	return used
}

// TestPoolRefcountConservation drives random acquire/release against the
// model: after every operation the ledger's used units on the pool
// cloudlet must equal units · (number of groups covering the slot), and
// refcounts must match the model exactly.
func TestPoolRefcountConservation(t *testing.T) {
	const (
		horizon  = 40
		capacity = 50
		units    = 2
		groups   = 5
	)
	led, err := New([]int{capacity}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(led)
	model := &poolModel{units: units, cloudlet: 0, members: map[int][][2]int{}}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 400; op++ {
		group := 1 + rng.Intn(groups)
		start := 1 + rng.Intn(horizon-5)
		duration := 1 + rng.Intn(5)
		if rng.Intn(2) == 0 || len(model.members[group]) == 0 {
			err := pool.Acquire(group, 0, start, duration, units)
			if err != nil {
				t.Fatalf("op %d: acquire group %d [%d,+%d): %v", op, group, start, duration, err)
			}
			model.members[group] = append(model.members[group], [2]int{start, start + duration - 1})
		} else {
			// Release a random existing member's exact window.
			ws := model.members[group]
			i := rng.Intn(len(ws))
			w := ws[i]
			if err := pool.Release(group, w[0], w[1]-w[0]+1); err != nil {
				t.Fatalf("op %d: release group %d %v: %v", op, group, w, err)
			}
			model.members[group] = append(ws[:i], ws[i+1:]...)
			if len(model.members[group]) == 0 {
				delete(model.members, group)
			}
		}
		for slot := 1; slot <= horizon; slot++ {
			if got, want := led.Used(0, slot), model.usedAt(slot); got != want {
				t.Fatalf("op %d slot %d: ledger used %d, model %d", op, slot, got, want)
			}
			for g := 1; g <= groups; g++ {
				if got, want := pool.Refs(g, slot), model.refs(g, slot); got != want {
					t.Fatalf("op %d group %d slot %d: refs %d, model %d", op, g, slot, got, want)
				}
			}
		}
	}
	// Drain everything: the ledger must return to zero and the pool to no
	// groups.
	for g, ws := range model.members {
		for _, w := range ws {
			if err := pool.Release(g, w[0], w[1]-w[0]+1); err != nil {
				t.Fatalf("drain group %d %v: %v", g, w, err)
			}
		}
	}
	if pool.Groups() != 0 {
		t.Fatalf("pool still holds %d groups after drain", pool.Groups())
	}
	for slot := 1; slot <= horizon; slot++ {
		if led.Used(0, slot) != 0 {
			t.Fatalf("slot %d not drained: %d units", slot, led.Used(0, slot))
		}
	}
}

// TestPoolRollingRefcountConservation is the same audit over a rolling
// ledger whose window laps the groups' refcount rings several times:
// members join near the clock, leave when their window ends (or early, at
// random), and the base advances behind them. A cell inherited from a
// retired slot must read as uncovered, and a group emptied and recycled
// must come back clean.
func TestPoolRollingRefcountConservation(t *testing.T) {
	const (
		window   = 8
		capacity = 9
		units    = 2
		groups   = 6
		laps     = 8
	)
	for seed := int64(1); seed <= 10; seed++ {
		led, err := NewRolling([]int{capacity}, window)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewPool(led)
		model := &poolModel{units: units, cloudlet: 0, members: map[int][][2]int{}}
		rng := rand.New(rand.NewSource(seed))
		refused, outside := 0, 0
		for clock := 1; clock <= laps*window; clock++ {
			// Leave: every member whose window ended, and now and then one
			// that has not.
			base := clock
			for g, ws := range model.members {
				kept := ws[:0]
				for _, w := range ws {
					if w[1] >= clock && rng.Intn(8) != 0 {
						kept = append(kept, w)
						if w[0] < base {
							base = w[0]
						}
						continue
					}
					if err := pool.Release(g, w[0], w[1]-w[0]+1); err != nil {
						t.Fatalf("seed %d clock %d: release group %d %v: %v", seed, clock, g, w, err)
					}
				}
				if model.members[g] = kept; len(kept) == 0 {
					delete(model.members, g)
				}
			}
			if err := led.Advance(base); err != nil {
				t.Fatalf("seed %d clock %d: advance to %d: %v", seed, clock, base, err)
			}
			for k := 0; k < 4; k++ {
				group := 1 + rng.Intn(groups)
				start := clock + rng.Intn(3)
				duration := 1 + rng.Intn(5)
				want := error(nil)
				if start+duration-1 > base+window-1 {
					want = ErrBadSlot
				}
				for slot := start; slot < start+duration && want == nil; slot++ {
					if model.refs(group, slot) == 0 && model.usedAt(slot)+units > capacity {
						want = ErrOverCapacity
					}
				}
				err := pool.Acquire(group, 0, start, duration, units)
				if !errors.Is(err, want) {
					t.Fatalf("seed %d clock %d: acquire group %d [%d,+%d): %v, want %v", seed, clock, group, start, duration, err, want)
				}
				if err != nil {
					if want == ErrBadSlot {
						outside++
					} else {
						refused++
					}
					continue
				}
				model.members[group] = append(model.members[group], [2]int{start, start + duration - 1})
			}
			for slot := base - window; slot <= base+2*window; slot++ {
				if got, want := led.Used(0, slot), model.usedAt(slot); got != want {
					t.Fatalf("seed %d clock %d slot %d: ledger used %d, model %d", seed, clock, slot, got, want)
				}
				for g := 1; g <= groups; g++ {
					if got, want := pool.Refs(g, slot), model.refs(g, slot); got != want {
						t.Fatalf("seed %d clock %d group %d slot %d: refs %d, model %d", seed, clock, g, slot, got, want)
					}
				}
			}
			if pool.Groups() != len(model.members) {
				t.Fatalf("seed %d clock %d: pool holds %d groups, model %d", seed, clock, pool.Groups(), len(model.members))
			}
		}
		if refused == 0 || outside == 0 {
			t.Fatalf("seed %d: %d acquires refused for capacity, %d for the window; want some of each", seed, refused, outside)
		}
	}
}

// TestPoolWindowLongerThanRing pins that a window longer than the ring —
// whose slots would alias the cells of live ones — is refused before any
// cell is touched, by Acquire and by Release.
func TestPoolWindowLongerThanRing(t *testing.T) {
	led, err := NewRolling([]int{10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(led)
	if err := pool.Acquire(1, 0, 2, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := pool.Acquire(1, 0, 1, led.Window()+1, 2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("acquire past the window err = %v, want ErrBadSlot", err)
	}
	if err := pool.Acquire(2, 0, 1, 3*led.Window(), 2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("acquire of three laps err = %v, want ErrBadSlot", err)
	}
	// Slot 10 shares slot 2's cell; a release reaching it must not count
	// slot 2's member as covering it.
	if err := pool.Release(1, 2, led.Window()+1); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("release past the window err = %v, want ErrNotCovered", err)
	}
	if err := pool.Release(1, 10, 1); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("release of an aliased slot err = %v, want ErrNotCovered", err)
	}
	for slot := 1; slot <= 8; slot++ {
		want := 0
		if slot >= 2 && slot <= 4 {
			want = 1
		}
		if got := pool.Refs(1, slot); got != want {
			t.Fatalf("slot %d: refs %d after refused calls, want %d", slot, got, want)
		}
		if got := led.Used(0, slot); got != 2*want {
			t.Fatalf("slot %d: used %d after refused calls, want %d", slot, got, 2*want)
		}
	}
	if pool.Refs(1, 10) != 0 || pool.Groups() != 1 {
		t.Fatalf("refs(10) = %d, groups = %d", pool.Refs(1, 10), pool.Groups())
	}
	if err := pool.Release(1, 2, 3); err != nil {
		t.Fatalf("exact release after refused calls: %v", err)
	}
}

// TestPoolSharing pins the whole point: two members with overlapping
// windows cost the ledger one reservation on the overlap.
func TestPoolSharing(t *testing.T) {
	led, err := New([]int{10}, 20)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(led)
	if err := pool.Acquire(1, 0, 1, 10, 3); err != nil {
		t.Fatal(err)
	}
	if err := pool.Acquire(1, 0, 5, 10, 3); err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 14; slot++ {
		if got := led.Used(0, slot); got != 3 {
			t.Fatalf("slot %d: used %d, want 3 (one pooled instance)", slot, got)
		}
	}
	if pool.Refs(1, 5) == 0 || pool.Refs(1, 15) != 0 {
		t.Fatal("coverage bounds wrong")
	}
	// First member leaves: [1,4] drains, overlap stays.
	if err := pool.Release(1, 1, 10); err != nil {
		t.Fatal(err)
	}
	if led.Used(0, 1) != 0 || led.Used(0, 10) != 3 || led.Used(0, 14) != 3 {
		t.Fatalf("partial release wrong: used(1)=%d used(10)=%d used(14)=%d",
			led.Used(0, 1), led.Used(0, 10), led.Used(0, 14))
	}
	if err := pool.Release(1, 5, 10); err != nil {
		t.Fatal(err)
	}
	if pool.Groups() != 0 || led.Used(0, 10) != 0 {
		t.Fatal("group not fully drained")
	}
}

// TestPoolAcquireRollback checks a refused mid-window reservation leaves
// both the ledger and the pool untouched.
func TestPoolAcquireRollback(t *testing.T) {
	led, err := New([]int{4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Fill slot 6 so a [4,8] acquire fails halfway.
	if err := led.Reserve(0, 6, 1, 3); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(led)
	err = pool.Acquire(7, 0, 4, 5, 2)
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("err = %v, want ErrOverCapacity", err)
	}
	for slot := 1; slot <= 10; slot++ {
		want := 0
		if slot == 6 {
			want = 3
		}
		if got := led.Used(0, slot); got != want {
			t.Fatalf("slot %d: used %d, want %d after rollback", slot, got, want)
		}
	}
	if pool.Groups() != 0 {
		t.Fatal("failed acquire left a group behind")
	}
}

// TestPoolErrors pins the error surface: group mismatches, unknown
// groups, uncovered releases (with prefix restore), and bad arguments.
func TestPoolErrors(t *testing.T) {
	led, err := New([]int{10, 10}, 20)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(led)
	if err := pool.Acquire(1, 0, 1, 5, 2); err != nil {
		t.Fatal(err)
	}
	if err := pool.Acquire(1, 1, 6, 2, 2); !errors.Is(err, ErrPoolMismatch) {
		t.Fatalf("cloudlet mismatch err = %v", err)
	}
	if err := pool.Acquire(1, 0, 6, 2, 3); !errors.Is(err, ErrPoolMismatch) {
		t.Fatalf("units mismatch err = %v", err)
	}
	if err := pool.Release(2, 1, 5); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("unknown group err = %v", err)
	}
	// Release sliding past coverage: [3,7] covers only [3,5]; the failed
	// call must restore refs on [3,5].
	if err := pool.Release(1, 3, 5); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("uncovered release err = %v", err)
	}
	if pool.Refs(1, 3) != 1 || pool.Refs(1, 5) != 1 {
		t.Fatal("failed release did not restore refcounts")
	}
	if err := pool.Release(1, 1, 5); err != nil {
		t.Fatalf("exact release after failed attempt: %v", err)
	}
	if err := pool.Acquire(1, 0, 1, 0, 2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("zero duration err = %v", err)
	}
	if err := pool.Acquire(1, 0, 1, 2, 0); !errors.Is(err, ErrBadUnits) {
		t.Fatalf("zero units err = %v", err)
	}
	if err := pool.Release(1, 1, 0); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("zero duration release err = %v", err)
	}
}

// TestPoolUncoveredRuns walks a member over a window whose covered and
// uncovered slots alternate, so one call books (and later frees) several
// separate runs, on a rolling ledger advanced until the window crosses the
// wrap of both rings. A refusal in the middle of the last run must leave
// the ledger and the refcounts exactly as they were before the call.
func TestPoolUncoveredRuns(t *testing.T) {
	const window, units, capacity = 8, 2, 6
	led, err := NewRolling([]int{capacity}, window)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Advance(6); err != nil { // live [6,13]; slot 8 sits in cell 0 of the pool's ring
		t.Fatal(err)
	}
	pool := NewPool(led)
	for _, w := range [][2]int{{7, 2}, {10, 1}} { // covered: [7,8] and [10,10]
		if err := pool.Acquire(1, 0, w[0], w[1], units); err != nil {
			t.Fatal(err)
		}
	}
	type state struct{ used, refs [window]int }
	snap := func() (s state) {
		for i := range s.used {
			s.used[i], s.refs[i] = led.Used(0, 6+i), pool.Refs(1, 6+i)
		}
		return s
	}
	// The uncovered runs of [6,13] are [6,6], [9,9] and [11,13]; slot 12 is
	// left one unit short.
	if err := led.Reserve(0, 12, 1, capacity-units+1); err != nil {
		t.Fatal(err)
	}
	before := snap()
	if err := pool.Acquire(1, 0, 6, window, units); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("acquire over a full slot 12: %v, want ErrOverCapacity", err)
	}
	if after := snap(); after != before {
		t.Fatalf("refused acquire changed state:\n before %+v\n after  %+v", before, after)
	}
	if err := led.Release(0, 12, 1, capacity-units+1); err != nil {
		t.Fatal(err)
	}
	before = snap()
	if err := pool.Acquire(1, 0, 6, window, units); err != nil {
		t.Fatal(err)
	}
	joined := snap()
	for i := range joined.used {
		if joined.used[i] != units || joined.refs[i] != before.refs[i]+1 {
			t.Fatalf("slot %d after the join: used %d refs %d, want %d and %d", 6+i, joined.used[i], joined.refs[i], units, before.refs[i]+1)
		}
	}
	if err := pool.Release(1, 6, window); err != nil {
		t.Fatal(err)
	}
	if after := snap(); after != before {
		t.Fatalf("release did not undo the join:\n before %+v\n after  %+v", before, after)
	}
}

// TestPoolRecycledGroupAllocations pins that a group opened on a recycled
// ring and closed again allocates nothing.
func TestPoolRecycledGroupAllocations(t *testing.T) {
	led, err := NewRolling([]int{10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(led)
	pair := func() {
		if err := pool.Acquire(3, 0, 2, 4, 2); err != nil {
			t.Fatal(err)
		}
		if err := pool.Release(3, 2, 4); err != nil {
			t.Fatal(err)
		}
	}
	pair() // the first group allocates the ring the rest reuse
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Errorf("Acquire and Release on a recycled group allocate %v times, want 0", n)
	}
}
