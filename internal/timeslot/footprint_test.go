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
	for k, c := range claims {
		for t := start; t < start+duration && !force; t++ {
			if m.caps[c.Cloudlet]-m.used[[2]int{c.Cloudlet, t}] < claimed(claims, k+1, c.Cloudlet) {
				return fpRefused, k
			}
		}
	}
	g := m.groups[pooled.Group]
	if pooled.Group != 0 {
		if pooled.Cloudlet < 0 || pooled.Cloudlet >= len(m.caps) || !m.live(start, duration) || pooled.Units <= 0 {
			return fpErrored, atPooled
		}
		if g != nil && (g.cloudlet != pooled.Cloudlet || g.units != pooled.Units) {
			return fpErrored, atPooled
		}
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

// advance is the model's Advance: refused while a retiring slot holds units.
func (m *fpModel) advance(base int) bool {
	for t := m.base; t < base; t++ {
		for j := range m.caps {
			if m.used[[2]int{j, t}] != 0 {
				return false
			}
		}
	}
	m.base = base
	return true
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
// the model's; an outcome the ledger alone decided that was not an
// acceptance must leave the epoch where it was. The capacities are tight
// enough that refusals land on every claim position and on the pooled row,
// which the test asserts it saw.
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
				if err := pool.ReleaseAll(b.start, b.duration, b.claims, b.pooled); err != nil {
					t.Fatalf("rolling=%v seed %d op %d: release of held booking %+v: %v", rolling, seed, op, b, err)
				}
				held = append(held[:i], held[i+1:]...)
				outcomes["release accepted"]++
			}
			clock := 1
			for op := 0; op < ops; op++ {
				if rolling && op%10 == 9 {
					// The clock moves; half the time the stragglers leave first,
					// otherwise the advance must be refused while they hold on.
					clock += 1 + rng.Intn(2)
					if rng.Intn(2) == 0 {
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].start < clock {
								releaseHeld(op, i)
							}
						}
					}
					epoch := led.epoch.Load()
					moved := m.advance(clock)
					if err := led.Advance(clock); (err == nil) != moved {
						t.Fatalf("seed %d op %d: Advance(%d) = %v, model moved=%v", seed, op, clock, err, moved)
					}
					if !moved && led.epoch.Load() != epoch {
						t.Fatalf("seed %d op %d: refused Advance bumped the epoch", seed, op)
					}
					if !moved {
						clock = m.base
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
				// A refusal or an error decided in the ledger's own round
				// wrote nothing, so it invalidates no Reader's copy. (A
				// pooled row that fails after the claims were booked has
				// them undone: that moves the epoch, and must.)
				if want != fpAccepted && at != atPooled && led.epoch.Load() != epoch {
					t.Fatalf("rolling=%v seed %d op %d: outcome %d at %d bumped the epoch", rolling, seed, op, want, at)
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

// BenchmarkFootprint times what an admission and its expiry ask of the
// ledger: one ReserveAll and one ReleaseAll of a footprint of 1 (on-site)
// and 3 (off-site) claims over a 3-slot window of a rolling ledger, through
// the Pool as the engine calls it. Neither may allocate.
func BenchmarkFootprint(b *testing.B) {
	for _, claims := range [][]Claim{{{0, 4}}, {{0, 2}, {3, 2}, {6, 2}}} {
		b.Run(fmt.Sprintf("claims=%d", len(claims)), func(b *testing.B) {
			led, err := NewRolling([]int{40, 40, 40, 40, 40, 40, 40, 40}, 64)
			if err != nil {
				b.Fatal(err)
			}
			pool := NewPool(led)
			pair := func(i int) {
				start := 1 + i%60
				if ok, err := pool.ReserveAll(start, 3, claims, Pooled{}, false); !ok || err != nil {
					b.Fatalf("ReserveAll = %v, %v", ok, err)
				}
				if err := pool.ReleaseAll(start, 3, claims, Pooled{}); err != nil {
					b.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(100, func() { pair(0) }); n != 0 {
				b.Fatalf("a reserve and release of %d claims allocate %v times, want 0", len(claims), n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair(i)
			}
		})
	}
}
