package dual

import (
	"math/rand"
	"testing"
)

// model is the obviously-correct price table: a map keyed by
// (cloudlet, absolute slot) that forgets slots below the window base and
// never writes outside [base, base+horizon-1].
type model struct {
	cloudlets, horizon, base int
	price                    map[[2]int]float64
}

func (m *model) live(slot int) bool { return slot >= m.base && slot <= m.base+m.horizon-1 }

func (m *model) at(j, slot int) float64 {
	if j < 0 || j >= m.cloudlets || !m.live(slot) {
		return 0
	}
	return m.price[[2]int{j, slot}]
}

func (m *model) update(j, lo, hi int, growth, additive float64) {
	for t := lo; t <= hi; t++ {
		if m.live(t) {
			m.price[[2]int{j, t}] = m.price[[2]int{j, t}]*growth + additive
		}
	}
}

func (m *model) advance(base int) {
	if base <= m.base {
		return
	}
	m.base = base
	for k := range m.price {
		if k[1] < base {
			delete(m.price, k)
		}
	}
}

// TestTableMatchesMapModel drives random updates, advances (ordinary,
// backward, no-op, and past the whole window) and reads through a Table
// and the map model for several laps of the ring, and requires every
// price, every window sum and the geometry to agree bit for bit.
func TestTableMatchesMapModel(t *testing.T) {
	const cloudlets, horizon = 3, 7
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(cloudlets, horizon)
		ref := &model{cloudlets: cloudlets, horizon: horizon, base: 1, price: map[[2]int]float64{}}
		jumps := 0
		for step := 0; ref.base < 1+5*horizon; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				// An update whose range may stick out of either end of the
				// window, or miss it altogether.
				j := rng.Intn(cloudlets)
				lo := ref.base - 3 + rng.Intn(horizon+6)
				hi := lo + rng.Intn(horizon+3)
				growth, additive := 1+rng.Float64(), rng.Float64()
				tab.Update(j, lo, hi, growth, additive)
				ref.update(j, lo, hi, growth, additive)
			case op < 9:
				// Forward by a little, backward, or not at all.
				base := ref.base - 2 + rng.Intn(5)
				start, n := tab.Advance(base)
				if want := max(base-ref.base, 0); n != want {
					t.Fatalf("seed %d step %d: Advance(%d) from %d retired %d cells, want %d", seed, step, base, ref.base, n, want)
				}
				if n > 0 && start != tab.Index(ref.base+horizon) {
					t.Fatalf("seed %d step %d: retired range starts at %d, not at the entering slot's cell", seed, step, start)
				}
				ref.advance(base)
			default:
				// Past the whole window: every cell retires, none twice.
				base := ref.base + horizon + rng.Intn(3)
				if _, n := tab.Advance(base); n != horizon {
					t.Fatalf("seed %d step %d: Advance by %d retired %d cells, want %d", seed, step, base-ref.base, n, horizon)
				}
				ref.advance(base)
				jumps++
			}
			if tab.Base() != ref.base || tab.Len() != horizon {
				t.Fatalf("seed %d step %d: window [%d, +%d), want [%d, +%d)", seed, step, tab.Base(), tab.Len(), ref.base, horizon)
			}
			for j := -1; j <= cloudlets; j++ {
				for slot := ref.base - 2; slot <= ref.base+horizon+1; slot++ {
					if got, want := tab.At(j, slot), ref.at(j, slot); got != want {
						t.Fatalf("seed %d step %d: λ[%d][%d] = %v, want %v", seed, step, j, slot, got, want)
					}
				}
			}
			// Window sums from every live start, so some span the wrap.
			j := rng.Intn(cloudlets)
			for lo := ref.base; lo < ref.base+horizon; lo++ {
				hi := lo + rng.Intn(ref.base+horizon-lo)
				if !tab.Contains(lo, hi) {
					t.Fatalf("seed %d step %d: [%d, %d] not contained in window at %d", seed, step, lo, hi, ref.base)
				}
				plain, weighted := 0.0, 0.0
				for s := lo; s <= hi; s++ {
					plain += ref.at(j, s)
					weighted += 2.5 * ref.at(j, s)
				}
				if got := tab.Sum(j, lo, hi, 1); got != plain {
					t.Fatalf("seed %d step %d: Sum(%d, %d, %d, 1) = %v, want %v", seed, step, j, lo, hi, got, plain)
				}
				if got := tab.Sum(j, lo, hi, 2.5); got != weighted {
					t.Fatalf("seed %d step %d: Sum(%d, %d, %d, 2.5) = %v, want %v", seed, step, j, lo, hi, got, weighted)
				}
			}
		}
		if jumps == 0 {
			t.Fatalf("seed %d: no advance past the whole window was drawn", seed)
		}
	}
}

// TestRowIndexAddressesAt pins the lockstep-walk contract: cell
// Index(slot) of Row(j) is λ_{slot,j}, before and after the ring wraps.
func TestRowIndexAddressesAt(t *testing.T) {
	tab := NewTable(2, 5)
	for lap := 0; lap < 3; lap++ {
		for slot := tab.Base(); slot < tab.Base()+tab.Len(); slot++ {
			tab.Update(1, slot, slot, 1, float64(slot))
			if got := tab.Row(1)[tab.Index(slot)]; got != tab.At(1, slot) || got == 0 {
				t.Fatalf("lap %d: Row(1)[Index(%d)] = %v, At = %v", lap, slot, got, tab.At(1, slot))
			}
		}
		tab.Advance(tab.Base() + 3)
	}
}

func TestWindowContainsAndClamp(t *testing.T) {
	tab := NewTable(1, 10)
	tab.Advance(5) // live window [5, 14]
	cases := []struct {
		name           string
		lo, hi         int
		contains, ok   bool
		wantLo, wantHi int
	}{
		{name: "inside", lo: 6, hi: 9, contains: true, ok: true, wantLo: 6, wantHi: 9},
		{name: "whole window", lo: 5, hi: 14, contains: true, ok: true, wantLo: 5, wantHi: 14},
		{name: "overlaps the base", lo: 2, hi: 7, ok: true, wantLo: 5, wantHi: 7},
		{name: "overlaps the far edge", lo: 12, hi: 20, ok: true, wantLo: 12, wantHi: 14},
		{name: "covers the window", lo: 1, hi: 30, ok: true, wantLo: 5, wantHi: 14},
		{name: "wholly before", lo: 1, hi: 4},
		{name: "wholly after", lo: 15, hi: 18},
	}
	for _, c := range cases {
		if got := tab.Contains(c.lo, c.hi); got != c.contains {
			t.Errorf("%s: Contains(%d, %d) = %v, want %v", c.name, c.lo, c.hi, got, c.contains)
		}
		lo, hi, ok := tab.Clamp(c.lo, c.hi)
		if ok != c.ok || ok && (lo != c.wantLo || hi != c.wantHi) {
			t.Errorf("%s: Clamp(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
				c.name, c.lo, c.hi, lo, hi, ok, c.wantLo, c.wantHi, c.ok)
		}
		if ok && !tab.Contains(lo, hi) {
			t.Errorf("%s: clamped range [%d, %d] is not contained", c.name, lo, hi)
		}
	}
}

// TestHotPathDoesNotAllocate pins the per-decision operations at zero
// allocations, on a window that has wrapped.
func TestHotPathDoesNotAllocate(t *testing.T) {
	tab := NewTable(4, 16)
	tab.Advance(11)
	base := 11
	sink := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		tab.Update(2, base+9, base+15, 1.25, 0.5)
		sink += tab.Sum(2, base+9, base+15, 1) + tab.Sum(1, base, base+3, 2)
		base++
		tab.Advance(base)
	})
	if allocs != 0 {
		t.Fatalf("Update+Sum+Advance allocate %v times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("sums were all zero: the updates did not land in the summed range")
	}
}
