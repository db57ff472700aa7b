package simulate

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"revnf/internal/core"
)

func TestRequestFor(t *testing.T) {
	trace := []core.Request{{ID: 0, Arrival: 1, Duration: 2}, {ID: 1, Arrival: 3, Duration: 1}}
	req, err := RequestFor(trace, core.Placement{Request: 1})
	if err != nil || req.ID != 1 {
		t.Fatalf("RequestFor = %+v, %v", req, err)
	}
	for _, bad := range []int{-1, 2} {
		if _, err := RequestFor(trace, core.Placement{Request: bad}); !errors.Is(err, ErrBadInstance) {
			t.Errorf("RequestFor(%d): err = %v, want ErrBadInstance", bad, err)
		}
	}
}

func TestWindowIndexExpireBefore(t *testing.T) {
	x := NewWindowIndex()
	// Three windows: [1,2], [1,4], [3,4]. End slots 2, 4, 4.
	x.Add(10, 1, 2)
	x.Add(11, 1, 4)
	x.Add(12, 3, 4)
	if x.Len() != 3 {
		t.Fatalf("Len = %d, want 3", x.Len())
	}
	if got := x.ExpireBefore(2); len(got) != 0 {
		t.Errorf("ExpireBefore(2) = %v, want none (window [1,2] still covers slot 2)", got)
	}
	// A window ending at slot 2 expires exactly at slot 3 = a+d.
	got := x.ExpireBefore(3)
	if len(got) != 1 || got[0] != 10 {
		t.Errorf("ExpireBefore(3) = %v, want [10]", got)
	}
	got = x.ExpireBefore(5)
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Errorf("ExpireBefore(5) = %v, want [11 12]", got)
	}
	if x.Len() != 0 {
		t.Errorf("Len after draining = %d, want 0", x.Len())
	}
	if got := x.ExpireBefore(100); len(got) != 0 {
		t.Errorf("ExpireBefore on empty index = %v, want none", got)
	}
}

func TestWindowIndexRemoveAndReAdd(t *testing.T) {
	x := NewWindowIndex()
	x.Add(1, 1, 5)
	x.Add(2, 2, 5)
	x.Remove(1)
	x.Remove(99) // unknown: ignored
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
	if got := x.ExpireBefore(6); len(got) != 1 || got[0] != 2 {
		t.Errorf("ExpireBefore(6) = %v, want [2]", got)
	}
	// Moving a live id's window is Remove then Add: Add alone does not
	// look for the id.
	x.Add(3, 2, 4)
	x.Remove(3)
	x.Add(3, 6, 7)
	if x.Len() != 1 {
		t.Fatalf("Len after move = %d, want 1", x.Len())
	}
	if end, ok := x.End(3); !ok || end != 7 {
		t.Errorf("End(3) = %d, %v, want 7, true", end, ok)
	}
	if got := x.ExpireBefore(5); len(got) != 0 {
		t.Errorf("stale window survived the move: %v", got)
	}
	if got := x.ExpireBefore(8); len(got) != 1 || got[0] != 3 {
		t.Errorf("ExpireBefore(8) = %v, want [3]", got)
	}
	if _, ok := x.End(3); ok {
		t.Error("End(3) still live after expiry")
	}
}

func TestWindowIndexOldestStart(t *testing.T) {
	x := NewWindowIndex()
	if _, ok := x.OldestStart(); ok {
		t.Fatal("OldestStart on empty index reported a value")
	}
	x.Add(1, 4, 9)
	x.Add(2, 2, 6)
	x.Add(3, 7, 8)
	if s, ok := x.OldestStart(); !ok || s != 2 {
		t.Fatalf("OldestStart = %d, %v, want 2, true", s, ok)
	}
	if s, ok := x.Start(1); !ok || s != 4 {
		t.Fatalf("Start(1) = %d, %v, want 4, true", s, ok)
	}
	// Draining the oldest window moves the pin forward.
	if got := x.ExpireBefore(7); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ExpireBefore(7) = %v, want [2]", got)
	}
	if s, ok := x.OldestStart(); !ok || s != 4 {
		t.Fatalf("OldestStart after drain = %d, %v, want 4, true", s, ok)
	}
	// A repair re-basing a live id (Remove, then Add) updates its pin.
	x.Remove(1)
	x.Add(1, 6, 9)
	if s, ok := x.OldestStart(); !ok || s != 6 {
		t.Fatalf("OldestStart after re-base = %d, %v, want 6, true", s, ok)
	}
	x.Remove(1)
	x.Remove(3)
	if _, ok := x.OldestStart(); ok {
		t.Fatal("OldestStart after removing all reported a value")
	}
}

// TestWindowIndexAgainstMapModel drives random Add / Remove /
// ExpireBefore against a plain map of id → window while the clock laps
// the deques' rings many times, and checks every query after every
// operation: Len, OldestStart, End and Start of a sampled id, and that
// ExpireBefore returns exactly the model's expired ids in ascending order.
func TestWindowIndexAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := NewWindowIndex()
		model := map[int][2]int{}
		nextID, clock := 0, 1
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				// Mostly near the clock, now and then far ahead of or
				// behind it, so both ends of the deques grow.
				start := clock + rng.Intn(4)
				if rng.Intn(20) == 0 {
					start = clock - rng.Intn(30) + rng.Intn(60)
				}
				end := start + rng.Intn(6)
				nextID++
				x.Add(nextID, start, end)
				model[nextID] = [2]int{start, end}
			case k < 7:
				id := 1 + rng.Intn(nextID+1)
				x.Remove(id)
				delete(model, id)
			default:
				clock += rng.Intn(3)
				if rng.Intn(50) == 0 {
					clock += 40 // a stalled clock catching up
				}
				var want []int
				for id, w := range model {
					if w[1] < clock {
						want = append(want, id)
						delete(model, id)
					}
				}
				sort.Ints(want)
				got := x.ExpireBefore(clock)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: ExpireBefore(%d) = %v, want %v", seed, op, clock, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: ExpireBefore(%d) = %v, want %v", seed, op, clock, got, want)
					}
				}
			}
			if x.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, x.Len(), len(model))
			}
			oldest, any := 0, false
			for _, w := range model {
				if !any || w[0] < oldest {
					oldest, any = w[0], true
				}
			}
			if got, ok := x.OldestStart(); ok != any || got != oldest {
				t.Fatalf("seed %d op %d: OldestStart = %d, %v, model %d, %v", seed, op, got, ok, oldest, any)
			}
			id := 1 + rng.Intn(nextID+1)
			w, live := model[id]
			if end, ok := x.End(id); ok != live || end != w[1] {
				t.Fatalf("seed %d op %d: End(%d) = %d, %v, model %v, %v", seed, op, id, end, ok, w, live)
			}
			if start, ok := x.Start(id); ok != live || start != w[0] {
				t.Fatalf("seed %d op %d: Start(%d) = %d, %v, model %v, %v", seed, op, id, start, ok, w, live)
			}
		}
	}
}

// TestWindowIndexSteadyStateAllocations pins the point of the rings: once
// warm, a clock that adds and expires a few windows per slot allocates
// nothing, slot after slot.
func TestWindowIndexSteadyStateAllocations(t *testing.T) {
	x := NewWindowIndex()
	id, slot := 0, 1
	step := func() {
		for k := 0; k < 8; k++ {
			id++
			x.Add(id, slot, slot+k%5)
		}
		slot++
		x.ExpireBefore(slot)
		x.OldestStart()
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Errorf("steady-state slot allocates %v times, want 0", n)
	}
}
