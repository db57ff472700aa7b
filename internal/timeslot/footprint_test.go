package timeslot

import (
	"fmt"
	"math/rand"
	"testing"
)

// fpModel is the oracle of the footprint operations: usage per (cloudlet,
// absolute slot) and, per backup group, a refcount per absolute slot, in
// maps, with every rule of ReserveAll/ReleaseAll restated as a check over
// them. It knows nothing of rings, epochs or locks.
type fpModel struct {
	caps   []int
	window int
	base   int
	used   map[[2]int]int
	groups map[int]*fpGroup
}

type fpGroup struct {
	cloudlet, units int
	refs            map[int]int
}

// fpOutcome is what an operation must report: booked, refused for lack of
// room (false, nil), or an error. Only fpAccepted changes the model.
type fpOutcome int

const (
	fpAccepted fpOutcome = iota
	fpRefused
	fpErrored
)

// atPooled is the position reserve reports when the pooled row, not a
// claim, was refused or in error.
const atPooled = -1

func (m *fpModel) live(start, duration int) bool {
	return duration >= 1 && start >= m.base && start+duration-1 <= m.base+m.window-1
}

func (m *fpModel) claimsValid(start, duration int, claims []Claim) bool {
	for _, c := range claims {
		if c.Cloudlet < 0 || c.Cloudlet >= len(m.caps) || !m.live(start, duration) || c.Units <= 0 {
			return false
		}
	}
	return true
}

// claimed sums the units claims[:n] ask of the cloudlet.
func claimed(claims []Claim, n, cloudlet int) int {
	sum := 0
	for _, c := range claims[:n] {
		if c.Cloudlet == cloudlet {
			sum += c.Units
		}
	}
	return sum
}

// reserve is the model's ReserveAll. Short of an acceptance, at names the
// first claim that did not fit or was invalid (atPooled for the pooled row).
func (m *fpModel) reserve(start, duration int, claims []Claim, pooled Pooled, force bool) (out fpOutcome, at int) {
	if !m.claimsValid(start, duration, claims) {
		return fpErrored, 0
	}
	g := m.groups[pooled.Group]
	if pooled.Group != 0 {
		if pooled.Cloudlet < 0 || pooled.Cloudlet >= len(m.caps) || !m.live(start, duration) || pooled.Units <= 0 {
			return fpErrored, atPooled
		}
		if g != nil && (g.cloudlet != pooled.Cloudlet || g.units != pooled.Units) {
			return fpErrored, atPooled
		}
	}
	for k, c := range claims {
		for t := start; t < start+duration && !force; t++ {
			if m.caps[c.Cloudlet]-m.used[[2]int{c.Cloudlet, t}] < claimed(claims, k+1, c.Cloudlet) {
				return fpRefused, k
			}
		}
	}
	if pooled.Group != 0 {
		// The row is never forced, and is booked on top of the claims.
		for t := start; t < start+duration; t++ {
			if g != nil && g.refs[t] > 0 {
				continue
			}
			free := m.caps[pooled.Cloudlet] - m.used[[2]int{pooled.Cloudlet, t}] - claimed(claims, len(claims), pooled.Cloudlet)
			if free < pooled.Units {
				return fpRefused, atPooled
			}
		}
	}
	for _, c := range claims {
		for t := start; t < start+duration; t++ {
			m.used[[2]int{c.Cloudlet, t}] += c.Units
		}
	}
	if pooled.Group != 0 {
		if g == nil {
			g = &fpGroup{cloudlet: pooled.Cloudlet, units: pooled.Units, refs: map[int]int{}}
			m.groups[pooled.Group] = g
		}
		for t := start; t < start+duration; t++ {
			if g.refs[t]++; g.refs[t] == 1 {
				m.used[[2]int{g.cloudlet, t}] += g.units
			}
		}
	}
	return fpAccepted, 0
}

// releasable reports whether the model's ReleaseAll would go through: the
// group covers every slot, the claims are valid and no cell underflows.
func (m *fpModel) releasable(start, duration int, claims []Claim, pooled Pooled) bool {
	if pooled.Group != 0 {
		g := m.groups[pooled.Group]
		if duration < 1 || g == nil {
			return false
		}
		for t := start; t < start+duration; t++ {
			if !m.live(t, 1) || g.refs[t] < 1 {
				return false
			}
		}
	}
	if !m.claimsValid(start, duration, claims) {
		return false
	}
	for k, c := range claims {
		for t := start; t < start+duration; t++ {
			if m.used[[2]int{c.Cloudlet, t}] < claimed(claims, k+1, c.Cloudlet) {
				return false
			}
		}
	}
	return true
}

// release is the model's ReleaseAll of a footprint releasable vouched for.
func (m *fpModel) release(start, duration int, claims []Claim, pooled Pooled) {
	for _, c := range claims {
		for t := start; t < start+duration; t++ {
			m.used[[2]int{c.Cloudlet, t}] -= c.Units
		}
	}
	if g := m.groups[pooled.Group]; pooled.Group != 0 {
		held := 0
		for t := start; t < start+duration; t++ {
			if g.refs[t]--; g.refs[t] == 0 {
				m.used[[2]int{g.cloudlet, t}] -= g.units
			}
		}
		for _, n := range g.refs {
			held += n
		}
		if held == 0 {
			delete(m.groups, pooled.Group)
		}
	}
}

// advance is the model's Advance: the base moves towards base and stops at
// the first slot where some cloudlet still holds units.
func (m *fpModel) advance(base int) {
	for ; m.base < base; m.base++ {
		for j := range m.caps {
			if m.used[[2]int{j, m.base}] != 0 {
				return
			}
		}
	}
}

// fpBooking is one footprint the test holds, to release exactly later.
type fpBooking struct {
	start, duration int
	claims          []Claim
	pooled          Pooled
}

// TestFootprintMatchesModel drives random footprints — 1–4 claims, with and
// without a pooled row, cloudlets repeated, windows in, across and outside
// the live window and the ring's wrap, bad cloudlets and units, forced and
// not — through Pool.ReserveAll/ReleaseAll and Ledger.ReserveAll/ReleaseAll
// on fixed and rolling ledgers. After every call, accepted, refused or in
// error, every live cell, every group's refcounts and Groups() must equal
// the model's; an acceptance moves the epoch exactly once and a refusal or
// an error, on a claim or on the pooled row, not at all. The capacities are
// tight enough that refusals land on every claim position and on the pooled
// row, which the test asserts it saw.
func TestFootprintMatchesModel(t *testing.T) {
	const (
		window = 8
		groups = 4
		ops    = 700
	)
	caps := []int{7, 5, 9}
	refusedAt := map[int]int{}
	outcomes := map[string]int{}
	for _, rolling := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			led, err := build(caps, window, rolling)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(led)
			m := &fpModel{caps: caps, window: window, base: 1, used: map[[2]int]int{}, groups: map[int]*fpGroup{}}
			rng := rand.New(rand.NewSource(seed))
			var held []fpBooking
			audit := func(op int, what string) {
				t.Helper()
				if got := led.Base(); got != m.base {
					t.Fatalf("rolling=%v seed %d op %d %s: base %d, model %d", rolling, seed, op, what, got, m.base)
				}
				for slot := m.base; slot < m.base+window; slot++ {
					for j := range caps {
						if got, want := led.Used(j, slot), m.used[[2]int{j, slot}]; got != want {
							t.Fatalf("rolling=%v seed %d op %d %s: cloudlet %d slot %d used %d, model %d",
								rolling, seed, op, what, j, slot, got, want)
						}
					}
					for g := 1; g <= groups; g++ {
						want := 0
						if mg := m.groups[g]; mg != nil {
							want = mg.refs[slot]
						}
						if got := pool.Refs(g, slot); got != want {
							t.Fatalf("rolling=%v seed %d op %d %s: group %d slot %d refs %d, model %d",
								rolling, seed, op, what, g, slot, got, want)
						}
					}
				}
				if got, want := pool.Groups(), len(m.groups); got != want {
					t.Fatalf("rolling=%v seed %d op %d %s: %d groups, model %d", rolling, seed, op, what, got, want)
				}
			}
			// releaseHeld returns booking i exactly as it was made.
			releaseHeld := func(op, i int) {
				t.Helper()
				b := held[i]
				if !m.releasable(b.start, b.duration, b.claims, b.pooled) {
					t.Fatalf("seed %d op %d: model refuses the release of held booking %+v", seed, op, b)
				}
				m.release(b.start, b.duration, b.claims, b.pooled)
				epoch := led.epoch.Load()
				if err := pool.ReleaseAll(b.start, b.duration, b.claims, b.pooled); err != nil {
					t.Fatalf("rolling=%v seed %d op %d: release of held booking %+v: %v", rolling, seed, op, b, err)
				}
				if moved := led.epoch.Load() - epoch; moved != 1 {
					t.Fatalf("rolling=%v seed %d op %d: release of %+v moved the epoch %d times, want once", rolling, seed, op, b, moved)
				}
				held = append(held[:i], held[i+1:]...)
				outcomes["release accepted"]++
			}
			clock := 1
			for op := 0; op < ops; op++ {
				if rolling && op%10 == 9 {
					// The clock moves; half the time the stragglers leave first,
					// otherwise the base must stop at the first slot they hold.
					clock += 1 + rng.Intn(2)
					if rng.Intn(2) == 0 {
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].start < clock {
								releaseHeld(op, i)
							}
						}
					}
					epoch, from := led.epoch.Load(), m.base
					m.advance(clock)
					if err := led.Advance(clock); err != nil {
						t.Fatalf("seed %d op %d: Advance(%d): %v", seed, op, clock, err)
					}
					want := uint64(0)
					if m.base != from {
						want = 1
					}
					if moved := led.epoch.Load() - epoch; moved != want {
						t.Fatalf("seed %d op %d: Advance(%d) from %d to %d moved the epoch %d times", seed, op, clock, from, m.base, moved)
					}
					audit(op, "advance")
					continue
				}
				// A window mostly inside the live window, sometimes leaving it
				// at either edge; one draw in 16 a duration of zero.
				start := m.base - 1 + rng.Intn(window+2)
				duration := 1 + rng.Intn(4)
				if rng.Intn(16) == 0 {
					duration = 0
				}
				claims := make([]Claim, 1+rng.Intn(4))
				for k := range claims {
					claims[k] = Claim{Cloudlet: rng.Intn(len(caps)), Units: 1 + rng.Intn(4)}
					switch rng.Intn(40) {
					case 0:
						claims[k].Cloudlet = len(caps) + rng.Intn(2)
					case 1:
						claims[k].Cloudlet = -1
					case 2:
						claims[k].Units = -rng.Intn(2)
					}
				}
				var pooled Pooled
				if rng.Intn(2) == 0 {
					pooled = Pooled{Group: 1 + rng.Intn(groups), Cloudlet: rng.Intn(len(caps)), Units: 1 + rng.Intn(2)}
					if g := m.groups[pooled.Group]; g != nil && rng.Intn(8) != 0 {
						pooled.Cloudlet, pooled.Units = g.cloudlet, g.units
					}
				}
				epoch := led.epoch.Load()
				if len(held) > 0 && rng.Intn(3) == 0 {
					// Release: a held booking as made, or bent so that it must
					// fail — more units than booked, a window one slot longer,
					// another group. A bent release the model would accept
					// takes someone else's units, a caller's bug no ledger can
					// see: skipped.
					i := rng.Intn(len(held))
					if rng.Intn(2) == 0 {
						releaseHeld(op, i)
						audit(op, "release")
						continue
					}
					b := held[i]
					b.claims = append([]Claim(nil), b.claims...)
					switch rng.Intn(3) {
					case 0:
						b.claims[rng.Intn(len(b.claims))].Units += 1 + rng.Intn(9)
					case 1:
						b.duration++
					case 2:
						b.pooled.Group = 1 + rng.Intn(groups)
					}
					if m.releasable(b.start, b.duration, b.claims, b.pooled) {
						continue
					}
					var err error
					if b.pooled.Group == 0 && rng.Intn(2) == 0 {
						err = led.ReleaseAll(b.start, b.duration, b.claims)
					} else {
						err = pool.ReleaseAll(b.start, b.duration, b.claims, b.pooled)
					}
					if err == nil {
						t.Fatalf("rolling=%v seed %d op %d: bent release %+v of %+v accepted", rolling, seed, op, b, held[i])
					}
					if led.epoch.Load() != epoch {
						t.Fatalf("rolling=%v seed %d op %d: failed release bumped the epoch", rolling, seed, op)
					}
					outcomes["release errored"]++
					audit(op, "bent release")
					continue
				}
				force := rng.Intn(8) == 0
				want, at := m.reserve(start, duration, claims, pooled, force)
				var ok bool
				if pooled.Group == 0 && rng.Intn(2) == 0 {
					ok, err = led.ReserveAll(start, duration, claims, force)
				} else {
					ok, err = pool.ReserveAll(start, duration, claims, pooled, force)
				}
				got := fpAccepted
				switch {
				case err != nil:
					got = fpErrored
				case !ok:
					got = fpRefused
				}
				if got != want {
					t.Fatalf("rolling=%v seed %d op %d: ReserveAll(%d, %d, %v, %+v, force=%v) = (%v, %v), model outcome %d",
						rolling, seed, op, start, duration, claims, pooled, force, ok, err, want)
				}
				switch want {
				case fpAccepted:
					held = append(held, fpBooking{start, duration, claims, pooled})
					outcomes["reserve accepted"]++
					if force {
						outcomes["reserve forced"]++
					}
				case fpRefused:
					refusedAt[at]++
				case fpErrored:
					outcomes["reserve errored"]++
				}
				// A refusal or an error wrote nothing, the pooled row's
				// included, so it invalidates no Reader's copy; an
				// acceptance is one write.
				bumps := uint64(0)
				if want == fpAccepted {
					bumps = 1
				}
				if moved := led.epoch.Load() - epoch; moved != bumps {
					t.Fatalf("rolling=%v seed %d op %d: outcome %d at %d moved the epoch %d times", rolling, seed, op, want, at, moved)
				}
				audit(op, "reserve")
			}
			// Everything held leaves; the ledger and the pool end empty.
			for len(held) > 0 {
				releaseHeld(ops, len(held)-1)
			}
			audit(ops, "drain")
			for key, u := range m.used {
				if u != 0 {
					t.Fatalf("rolling=%v seed %d: model cell %v ends at %d", rolling, seed, key, u)
				}
			}
		}
	}
	for _, at := range []int{0, 1, 2, 3, atPooled} {
		if refusedAt[at] == 0 {
			t.Errorf("no refusal provoked at claim position %d (%d = the pooled row): %v", at, atPooled, refusedAt)
		}
	}
	for _, what := range []string{"reserve accepted", "reserve forced", "reserve errored", "release accepted", "release errored"} {
		if outcomes[what] == 0 {
			t.Errorf("the stream never produced %q: %v", what, outcomes)
		}
	}
	t.Logf("refusals by position %v, outcomes %v", refusedAt, outcomes)
}

// TestAdvanceStopsAtFirstHeldRow is the rolling window's contract as a
// property against the map model: random footprints — claims, pooled joins
// and leaves of groups that outlive their members — and releases,
// interleaved with advances by 0 to W+2 slots, now and then over a drained
// ledger. After each Advance(to) the base is min(to, the first slot in the
// window still holding units), so no held unit is ever retired: every cell
// still matches the model and every footprint still held releases whole.
func TestAdvanceStopsAtFirstHeldRow(t *testing.T) {
	const window = 6
	caps := []int{6, 4, 8}
	moves := map[string]int{}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		led, err := NewRolling(caps, window)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewPool(led)
		m := &fpModel{caps: caps, window: window, base: 1, used: map[[2]int]int{}, groups: map[int]*fpGroup{}}
		var held []fpBooking
		release := func(op, i int) {
			t.Helper()
			b := held[i]
			if err := pool.ReleaseAll(b.start, b.duration, b.claims, b.pooled); err != nil {
				t.Fatalf("seed %d op %d: release of held %+v at base %d: %v", seed, op, b, led.Base(), err)
			}
			m.release(b.start, b.duration, b.claims, b.pooled)
			held = append(held[:i], held[i+1:]...)
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				duration := 1 + rng.Intn(3)
				start := m.base + rng.Intn(window-duration+1)
				claims := make([]Claim, rng.Intn(3))
				for c := range claims {
					claims[c] = Claim{Cloudlet: rng.Intn(len(caps)), Units: 1 + rng.Intn(2)}
				}
				var pooled Pooled
				if len(claims) == 0 || rng.Intn(2) == 0 {
					g := 1 + rng.Intn(3)
					pooled = Pooled{Group: g, Cloudlet: g % len(caps), Units: g}
				}
				ok, err := pool.ReserveAll(start, duration, claims, pooled, false)
				if err != nil {
					t.Fatalf("seed %d op %d: reserve: %v", seed, op, err)
				}
				if ok {
					if out, _ := m.reserve(start, duration, claims, pooled, false); out != fpAccepted {
						t.Fatalf("seed %d op %d: the ledger booked what the model refuses", seed, op)
					}
					held = append(held, fpBooking{start, duration, claims, pooled})
				}
			case k < 7 && len(held) > 0:
				release(op, rng.Intn(len(held)))
			default:
				if rng.Intn(8) == 0 {
					for len(held) > 0 {
						release(op, len(held)-1)
					}
				}
				from := m.base
				to := from + rng.Intn(window+3)
				want := to
			scan:
				for s := from; s < to; s++ {
					for j := range caps {
						if m.used[[2]int{j, s}] != 0 {
							want = s
							break scan
						}
					}
				}
				if err := led.Advance(to); err != nil {
					t.Fatalf("seed %d op %d: Advance(%d) from %d: %v", seed, op, to, from, err)
				}
				if got := led.Base(); got != want {
					t.Fatalf("seed %d op %d: Advance(%d) from %d reached %d, the first held slot bounds it at %d",
						seed, op, to, from, got, want)
				}
				switch {
				case want == to && to-from >= window:
					moves["jump"]++
				case want < to:
					moves["stopped"]++
				}
				m.base = want
			}
			for s := m.base; s < m.base+window; s++ {
				for j := range caps {
					if got, w := led.Used(j, s), m.used[[2]int{j, s}]; got != w {
						t.Fatalf("seed %d op %d: cloudlet %d slot %d used %d, model %d", seed, op, j, s, got, w)
					}
				}
			}
			for _, b := range held {
				if b.start < m.base {
					t.Fatalf("seed %d op %d: held %+v starts before base %d", seed, op, b, m.base)
				}
			}
		}
		for len(held) > 0 {
			release(-1, len(held)-1)
		}
	}
	if moves["jump"] == 0 || moves["stopped"] == 0 {
		t.Errorf("the stream never exercised both a jump past the window and a stop at a held row: %v", moves)
	}
}

// TestPooledFootprintBumpsEpochOnce pins what a shared admission and its
// expiry cost a Reader: one epoch bump each, whether the pooled row opens a
// group, joins a covered one or is refused (none then).
func TestPooledFootprintBumpsEpochOnce(t *testing.T) {
	led, err := NewRolling([]int{10, 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(led)
	claims := []Claim{{0, 3}, {1, 2}}
	row := Pooled{Group: 5, Cloudlet: 1, Units: 4}
	step := func(what string, want uint64, call func() error) {
		t.Helper()
		before := led.epoch.Load()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := led.epoch.Load() - before; got != want {
			t.Errorf("%s moved the epoch %d times, want %d", what, got, want)
		}
	}
	reserve := func(start int, want bool) func() error {
		return func() error {
			if ok, err := pool.ReserveAll(start, 3, claims, row, false); ok != want || err != nil {
				return fmt.Errorf("ReserveAll at %d = (%v, %v), want %v", start, ok, err, want)
			}
			return nil
		}
	}
	release := func(start int) func() error {
		return func() error { return pool.ReleaseAll(start, 3, claims, row) }
	}
	step("a reservation opening the group", 1, reserve(2, true))
	step("a reservation joining it", 1, reserve(3, true))
	// Slot 6 of cloudlet 1 is the one cell of [4,6] the row does not cover:
	// with 5 units held there, the claim's 2 fit and the row's 4 fit, but
	// not both.
	if err := led.Reserve(1, 6, 1, 5); err != nil {
		t.Fatal(err)
	}
	step("a refusal on the pooled row", 0, reserve(4, false))
	if err := led.Release(1, 6, 1, 5); err != nil {
		t.Fatal(err)
	}
	step("a release leaving covered cells", 1, release(3))
	step("the release closing the group", 1, release(2))
	if pool.Groups() != 0 || led.Used(1, 3) != 0 {
		t.Fatalf("groups %d, cloudlet 1 slot 3 used %d after both releases", pool.Groups(), led.Used(1, 3))
	}
}

// BenchmarkFootprint times what an admission and its expiry ask of the
// ledger: one ReserveAll and one ReleaseAll over a 3-slot window of a
// rolling ledger, through the Pool as the engine calls it, of a footprint
// of 1 (on-site) and 3 (off-site) claims, and of one claim with a pooled
// row (shared) that joins a group covering the whole window or opens and
// closes its own. None may allocate.
func BenchmarkFootprint(b *testing.B) {
	for _, bc := range []struct {
		name   string
		claims []Claim
		pooled Pooled
		cover  bool // a long-lived member covers the pooled row's every slot
	}{
		{"claims=1", []Claim{{0, 4}}, Pooled{}, false},
		{"claims=3", []Claim{{0, 2}, {3, 2}, {6, 2}}, Pooled{}, false},
		{"claims=1+pooled/join", []Claim{{0, 4}}, Pooled{Group: 1, Cloudlet: 1, Units: 2}, true},
		{"claims=1+pooled/open", []Claim{{0, 4}}, Pooled{Group: 1, Cloudlet: 1, Units: 2}, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			led, err := NewRolling([]int{40, 40, 40, 40, 40, 40, 40, 40}, 64)
			if err != nil {
				b.Fatal(err)
			}
			pool := NewPool(led)
			if bc.cover {
				if err := pool.Acquire(bc.pooled.Group, bc.pooled.Cloudlet, 1, 64, bc.pooled.Units); err != nil {
					b.Fatal(err)
				}
			}
			pair := func(i int) {
				start := 1 + i%60
				if ok, err := pool.ReserveAll(start, 3, bc.claims, bc.pooled, false); !ok || err != nil {
					b.Fatalf("ReserveAll = %v, %v", ok, err)
				}
				if err := pool.ReleaseAll(start, 3, bc.claims, bc.pooled); err != nil {
					b.Fatal(err)
				}
			}
			pair(0) // a group opened here allocates the ring the rest reuse
			if n := testing.AllocsPerRun(100, func() { pair(0) }); n != 0 {
				b.Fatalf("a reserve and release of %s allocate %v times, want 0", bc.name, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair(i)
			}
		})
	}
}
