package timeslot

import (
	"math/rand"
	"slices"
	"testing"
)

func TestClearRingWraps(t *testing.T) {
	for start := 0; start < 5; start++ {
		for n := 0; n <= 5; n++ {
			ring := []int{1, 1, 1, 1, 1}
			ClearRing(ring, start, n)
			for i, v := range ring {
				cleared := (i-start+5)%5 < n
				if (v == 0) != cleared {
					t.Fatalf("ClearRing(start %d, n %d) left %v", start, n, ring)
				}
			}
		}
	}
}

// TestEndsMatchesMapModel drives an end-slot index and a map of slot →
// values filed through random files and pops, over many laps of the ring,
// and after every call requires every cell to hold what the model holds
// there, in the order filed, and every pop to hand out the model's values
// before its limit in slot order. The draws file behind the front, at and
// past the far edge (which grow the ring), pop with limits that jump more
// than a window ahead, and re-file some popped values into a later cell
// during the pop; each kind must occur.
func TestEndsMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x Ends[int]
		model := map[int][]int{}
		next, clock := 0, 1
		var behind, farEdge, jumps, refiled int
		file := func(slot int) {
			if len(model) > 0 {
				if lo, _ := bounds(model); slot < lo && slot < x.Base() {
					behind++
				}
				if slot >= x.Base()+len(x.cells)-1 {
					farEdge++
				}
			}
			next++
			x.File(slot, next)
			model[slot] = append(model[slot], next)
		}
		for step := 0; step < 3000; step++ {
			switch k := rng.Intn(10); {
			case k < 5:
				file(clock + rng.Intn(6))
			case k < 6:
				file(clock - 1 - rng.Intn(4)) // a straggler
			case k < 7:
				// The far edge or just past it, a growth, while the ring is
				// small: a far edge drawn from a grown ring, and a straggler
				// behind it, would double the ring again and again.
				if len(model) > 0 && len(x.cells) < 64 {
					file(x.Base() + len(x.cells) - 1 + rng.Intn(2))
				}
			default:
				limit := clock + rng.Intn(3)
				jump := rng.Intn(15) == 0
				if jump { // past the far edge
					limit = max(limit, x.Base()+len(x.cells)+1+rng.Intn(5))
					jumps++
				}
				var want []int
				for _, slot := range sortedSlots(model) {
					if slot < limit {
						want = append(want, model[slot]...)
						delete(model, slot)
					}
				}
				var got []int
				x.Pop(limit, func(v int) {
					got = append(got, v)
					// Re-filed into a later cell during the pop; not during a
					// jump, where that cell lies past the far edge and each
					// jump would grow the ring again.
					if !jump && v%4 == 0 {
						slot := limit + rng.Intn(4)
						x.File(slot, -v)
						model[slot] = append(model[slot], -v)
						refiled++
					}
				})
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Pop(%d) = %v, want %v", seed, step, limit, got, want)
				}
				clock = max(clock, limit)
			}
			if len(model) == 0 {
				continue
			}
			lo, hi := bounds(model)
			if x.Base() > lo || x.Last() < hi {
				t.Fatalf("seed %d step %d: index spans [%d, %d], values filed over [%d, %d]", seed, step, x.Base(), x.Last(), lo, hi)
			}
			for slot := lo - 3; slot <= hi+3; slot++ {
				if got := x.Cell(slot); !slices.Equal(got, model[slot]) {
					t.Fatalf("seed %d step %d: Cell(%d) = %v, want %v", seed, step, slot, got, model[slot])
				}
			}
		}
		if behind == 0 || farEdge == 0 || jumps == 0 || refiled == 0 {
			t.Fatalf("seed %d: %d files behind the front, %d at the far edge, %d jumps, %d re-files: a case was not drawn",
				seed, behind, farEdge, jumps, refiled)
		}
	}
}

// bounds returns the first and last slot of the model holding a value.
func bounds(model map[int][]int) (lo, hi int) {
	slots := sortedSlots(model)
	return slots[0], slots[len(slots)-1]
}

func sortedSlots(model map[int][]int) []int {
	var slots []int
	for slot, vs := range model {
		if len(vs) > 0 {
			slots = append(slots, slot)
		}
	}
	slices.Sort(slots)
	return slots
}
