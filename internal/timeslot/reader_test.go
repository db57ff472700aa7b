package timeslot

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// compareReader checks every read accessor of the reader against the
// ledger's own answer, for arguments inside the window [start,
// start+duration-1], straddling either end of it, beyond it, and for
// unknown cloudlets. With the ledger quiescent the two must agree whether
// the reader answers from its copy or falls through.
func compareReader(t *testing.T, what string, l *Ledger, r *Reader, start, duration int) {
	t.Helper()
	for j := -1; j <= l.Cloudlets(); j++ {
		if got, want := r.Capacity(j), l.Capacity(j); got != want {
			t.Fatalf("%s: Capacity(%d) = %d, ledger says %d", what, j, got, want)
		}
		for s := start - 2; s <= start+duration+1; s++ {
			if got, want := r.Residual(j, s), l.Residual(j, s); got != want {
				t.Fatalf("%s: Residual(%d,%d) = %d, ledger says %d (loaded [%d,+%d), base %d)",
					what, j, s, got, want, start, duration, l.Base())
			}
			for d := 0; d <= duration+2; d++ {
				if got, want := r.ResidualWindow(j, s, d), l.ResidualWindow(j, s, d); got != want {
					t.Fatalf("%s: ResidualWindow(%d,%d,%d) = %d, ledger says %d (loaded [%d,+%d), base %d)",
						what, j, s, d, got, want, start, duration, l.Base())
				}
			}
		}
	}
}

// TestReaderMatchesLedger is the reader's quickcheck: over random reserve /
// force-reserve / release / advance sequences on a fixed and a rolling
// ledger (the rolling one for more than five laps of its ring), a Load of a
// random window — live, straddling the live window, outside it, longer than
// it, empty — leaves every read equal to the ledger's, and so does an
// Advance that retires the loaded window under the reader.
func TestReaderMatchesLedger(t *testing.T) {
	const window = 12
	caps := []int{6, 9, 4}
	type held struct{ cloudlet, start, duration, units int }
	for _, rolling := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l, err := build(caps, window, rolling)
			if err != nil {
				t.Fatal(err)
			}
			r := l.NewReader()
			compareReader(t, "nothing loaded", l, r, 1, 3)
			var mine []held
			release := func(k int) {
				h := mine[k]
				if err := l.Release(h.cloudlet, h.start, h.duration, h.units); err != nil {
					t.Fatalf("Release(%+v): %v", h, err)
				}
				mine[k] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
			}
			for step := 0; step < 400; step++ {
				base := l.Base()
				switch op := rng.Intn(10); {
				case op < 5:
					h := held{cloudlet: rng.Intn(len(caps)), duration: 1 + rng.Intn(4), units: 1 + rng.Intn(3)}
					h.start = base + rng.Intn(window-h.duration+1)
					ok := true
					if op == 0 {
						err = l.ForceReserve(h.cloudlet, h.start, h.duration, h.units)
					} else {
						ok, err = l.ReserveWindow(h.cloudlet, h.start, h.duration, h.units)
					}
					if err != nil {
						t.Fatalf("reserve %+v: %v", h, err)
					}
					if ok {
						mine = append(mine, h)
					}
				case op < 8 && len(mine) > 0:
					release(rng.Intn(len(mine)))
				case rolling:
					// Drain what the advance would retire, then advance.
					to := base + 1 + rng.Intn(3)
					for k := len(mine) - 1; k >= 0; k-- {
						if mine[k].start < to {
							release(k)
						}
					}
					if err := l.Advance(to); err != nil {
						t.Fatalf("Advance(%d): %v", to, err)
					}
				}
				// Every seventh step an Advance will retire the loaded window,
				// or part of it, under the reader; what it needs drained is
				// released first, so nothing but the base moves after the Load.
				base = l.Base()
				retireTo := 0
				if rolling && step%7 == 0 {
					retireTo = base + 1 + rng.Intn(window)
					for k := len(mine) - 1; k >= 0; k-- {
						if mine[k].start < retireTo {
							release(k)
						}
					}
				}
				// A window anywhere from two slots before the live window to
				// two past it, of any length up to one more than the ring.
				start, duration := base-2+rng.Intn(window+4), rng.Intn(window+2)
				r.Load(start, duration)
				compareReader(t, "after Load", l, r, start, duration)
				if retireTo > 0 {
					if err := l.Advance(retireTo); err != nil {
						t.Fatalf("Advance(%d): %v", retireTo, err)
					}
					compareReader(t, "after Advance past the load", l, r, start, duration)
				}
			}
			if rolling && l.Base() <= 5*window {
				t.Fatalf("seed %d: only reached base %d, want more than five laps of %d", seed, l.Base(), window)
			}
		}
	}
}

// TestReaderHitMatchesColdLoad is the quickcheck of the Load that keeps its
// copy: over random reserve / force-reserve / release / Pool.Acquire /
// Pool.Release / advance sequences, fixed and rolling, with steps that
// change nothing in between, a Reader that lives through the whole sequence
// answers every read inside and around the window as a Reader made for that
// one Load does — after loading a random window, the same window again, a
// prefix of it, a window anchored later inside it, and the first again. And
// a Load that kept its copy did so under the base the copy was made under.
func TestReaderHitMatchesColdLoad(t *testing.T) {
	const window = 12
	caps := []int{6, 9, 4}
	type held struct {
		pooled                        bool
		where, start, duration, units int // where: the cloudlet, or the pool group
	}
	for _, rolling := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l, err := build(caps, window, rolling)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(l)
			warm := l.NewReader()
			var mine []held
			release := func(k int) {
				h := mine[k]
				err := l.Release(h.where, h.start, h.duration, h.units)
				if h.pooled {
					err = pool.Release(h.where, h.start, h.duration)
				}
				if err != nil {
					t.Fatalf("release %+v: %v", h, err)
				}
				mine[k] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
			}
			var hits, copies uint64
			copiedAtBase, start := 0, 0
			for step := 0; step < 250; step++ {
				base := l.Base()
				switch op := rng.Intn(16); {
				case op < 4:
					h := held{where: rng.Intn(len(caps)), duration: 1 + rng.Intn(4), units: 1 + rng.Intn(3)}
					h.start = base + rng.Intn(window-h.duration+1)
					ok := true
					if op == 0 {
						err = l.ForceReserve(h.where, h.start, h.duration, h.units)
					} else {
						ok, err = l.ReserveWindow(h.where, h.start, h.duration, h.units)
					}
					if err != nil {
						t.Fatalf("reserve %+v: %v", h, err)
					}
					if ok {
						mine = append(mine, h)
					}
				case op < 6:
					// Group g lives on cloudlet g mod 3 and holds 1 + g mod 2 units.
					h := held{pooled: true, where: rng.Intn(5), duration: 1 + rng.Intn(4)}
					h.start = base + rng.Intn(window-h.duration+1)
					if err := pool.Acquire(h.where, h.where%len(caps), h.start, h.duration, 1+h.where%2); err == nil {
						mine = append(mine, h)
					} else if !errors.Is(err, ErrOverCapacity) {
						t.Fatalf("Acquire %+v: %v", h, err)
					}
				case op < 9 && len(mine) > 0:
					release(rng.Intn(len(mine)))
				case op < 10 && rolling:
					// Drain what the advance would retire, then advance.
					to := base + 1 + rng.Intn(3)
					for k := len(mine) - 1; k >= 0; k-- {
						if mine[k].start < to {
							release(k)
						}
					}
					if err := l.Advance(to); err != nil {
						t.Fatalf("Advance(%d): %v", to, err)
					}
				}
				// The other steps leave the ledger as it was.
				// Half the steps ask at the slot the step before asked at, as
				// the requests of one slot do.
				base = l.Base()
				duration := rng.Intn(window + 2)
				if step == 0 || rng.Intn(2) == 0 {
					start = base - 2 + rng.Intn(window+4)
				}
				for _, w := range [][2]int{{start, duration}, {start, duration}, {start, duration - rng.Intn(3)},
					{start + 1 + rng.Intn(2), duration - 3}, {start, duration}} {
					warm.Load(w[0], w[1])
					if _, copied := warm.TakeLoads(); copied == 1 {
						copies++
						copiedAtBase = base
					} else if hits++; copiedAtBase != base {
						t.Fatalf("step %d: Load(%d,%d) kept a copy made under base %d, the base is %d",
							step, w[0], w[1], copiedAtBase, base)
					}
					cold := l.NewReader()
					cold.Load(w[0], w[1])
					for j := -1; j <= len(caps); j++ {
						for s := w[0] - 2; s <= w[0]+w[1]+1; s++ {
							if got, want := warm.Residual(j, s), cold.Residual(j, s); got != want {
								t.Fatalf("step %d after Load(%d,%d): Residual(%d,%d) = %d, a cold reader says %d",
									step, w[0], w[1], j, s, got, want)
							}
							for d := 0; d <= w[1]+2; d++ {
								if got, want := warm.ResidualWindow(j, s, d), cold.ResidualWindow(j, s, d); got != want {
									t.Fatalf("step %d after Load(%d,%d): ResidualWindow(%d,%d,%d) = %d, a cold reader says %d",
										step, w[0], w[1], j, s, d, got, want)
								}
							}
						}
					}
				}
			}
			if hits < 250 || copies < 250 {
				t.Fatalf("rolling %v seed %d: %d loads kept their copy and %d copied, want at least 250 of each",
					rolling, seed, hits, copies)
			}
		}
	}
}

// ledgerState is what a write may change and what the row stamps promise
// about it: every row's cells (by ring index), the stamps and the epoch.
type ledgerState struct {
	used  [][]int
	stamp []uint64
	epoch uint64
}

func stateOf(l *Ledger) ledgerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := ledgerState{stamp: append([]uint64(nil), l.stamp...), epoch: l.epoch.Load()}
	for _, row := range l.used.rows {
		st.used = append(st.used, append([]int(nil), row...))
	}
	return st
}

// checkStamps holds the stamps to their promise across one operation: no
// stamp runs ahead of the epoch, and a row whose cells changed carries a
// stamp above the epoch before the operation.
func checkStamps(t *testing.T, what string, before, after ledgerState) {
	t.Helper()
	for j := range after.stamp {
		if after.stamp[j] > after.epoch {
			t.Fatalf("%s: row %d stamped %d, past the epoch %d", what, j, after.stamp[j], after.epoch)
		}
		for i := range after.used[j] {
			if after.used[j][i] != before.used[j][i] && after.stamp[j] <= before.epoch {
				t.Fatalf("%s: row %d changed at ring index %d, its stamp %d is not past the epoch %d before",
					what, j, i, after.stamp[j], before.epoch)
			}
		}
	}
}

// TestReaderRefreshMatchesColdLoad is the quickcheck of the Load that
// refreshes its copy: between two loads of windows inside the copy, random
// footprints — claims, forced claims, refused ones, and pooled rows that
// join, open and leave their groups, with and without claims — land on
// random rows, and on the rolling ledger the window advances, sometimes
// past the copy's first slot. Every Load then answers every read inside
// and around its window as a Reader made for that one Load does, and every
// operation keeps the stamps' promise (checkStamps).
func TestReaderRefreshMatchesColdLoad(t *testing.T) {
	const window = 12
	caps := []int{6, 9, 4}
	type held struct {
		start, duration int
		claims          []Claim
		group           int
	}
	for _, rolling := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l, err := build(caps, window, rolling)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(l)
			warm := l.NewReader()
			var mine []held
			apply := func(what string, op func() error) {
				t.Helper()
				before := stateOf(l)
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkStamps(t, what, before, stateOf(l))
			}
			release := func(k int) {
				h := mine[k]
				apply(fmt.Sprintf("release %+v", h), func() error {
					return pool.ReleaseAll(h.start, h.duration, h.claims, Pooled{Group: h.group})
				})
				mine[k] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
			}
			copyStart, copyDuration := 0, 0
			var refreshes uint64
			for step := 0; step < 400; step++ {
				base := l.Base()
				if step%8 == 0 || copyDuration == 0 {
					// A fresh copy of a live window.
					copyDuration = 1 + rng.Intn(6)
					copyStart = base + rng.Intn(window-copyDuration+1)
					warm.Load(copyStart, copyDuration)
					_, _ = warm.TakeLoads()
				}
				for n := rng.Intn(4); n > 0; n-- {
					base = l.Base()
					switch op := rng.Intn(10); {
					case op < 5:
						// Claims on one to three random rows, one in five forced,
						// with a pooled row half the time (group g lives on
						// cloudlet g mod 3 and holds 1 + g mod 2 units).
						h := held{duration: 1 + rng.Intn(4)}
						h.start = base + rng.Intn(window-h.duration+1)
						for k := rng.Intn(4); k > 0; k-- {
							h.claims = append(h.claims, Claim{rng.Intn(len(caps)), 1 + rng.Intn(4)})
						}
						pooled := Pooled{}
						if rng.Intn(2) == 0 {
							h.group = 1 + rng.Intn(4)
							pooled = Pooled{h.group, h.group % len(caps), 1 + h.group%2}
						}
						force := rng.Intn(5) == 0
						ok := false
						apply(fmt.Sprintf("reserve %+v force %v", h, force), func() (err error) {
							ok, err = pool.ReserveAll(h.start, h.duration, h.claims, pooled, force)
							return err
						})
						if ok && (len(h.claims) > 0 || h.group != 0) {
							mine = append(mine, h)
						}
					case op < 8 && len(mine) > 0:
						release(rng.Intn(len(mine)))
					case op < 9 && rolling:
						// Drain what the advance would retire, then advance: to
						// the copy's first slot or past it.
						to := base + 1 + rng.Intn(3)
						for k := len(mine) - 1; k >= 0; k-- {
							if mine[k].start < to {
								release(k)
							}
						}
						apply(fmt.Sprintf("Advance(%d)", to), func() error { return l.Advance(to) })
					}
				}
				// A window inside the copy: itself, or a part of it.
				start := copyStart + rng.Intn(copyDuration)
				duration := 1 + rng.Intn(copyStart+copyDuration-start)
				warm.Load(start, duration)
				_, misses := warm.TakeLoads()
				refreshed := warm.TakeRefreshes()
				refreshes += refreshed
				if misses == 1 && refreshed == 0 {
					// The copy's window was no longer live: a cold copy now.
					copyStart, copyDuration = start, duration
				}
				cold := l.NewReader()
				cold.Load(start, duration)
				for j := -1; j <= len(caps); j++ {
					for s := start - 2; s <= start+duration+1; s++ {
						if got, want := warm.Residual(j, s), cold.Residual(j, s); got != want {
							t.Fatalf("rolling %v seed %d step %d after Load(%d,%d) of a copy of [%d,+%d): Residual(%d,%d) = %d, a cold reader says %d",
								rolling, seed, step, start, duration, copyStart, copyDuration, j, s, got, want)
						}
						for d := 0; d <= duration+2; d++ {
							if got, want := warm.ResidualWindow(j, s, d), cold.ResidualWindow(j, s, d); got != want {
								t.Fatalf("rolling %v seed %d step %d after Load(%d,%d) of a copy of [%d,+%d): ResidualWindow(%d,%d,%d) = %d, a cold reader says %d",
									rolling, seed, step, start, duration, copyStart, copyDuration, j, s, d, got, want)
							}
						}
					}
				}
			}
			if refreshes < 150 {
				t.Fatalf("rolling %v seed %d: %d loads refreshed their copy, want at least 150", rolling, seed, refreshes)
			}
		}
	}
}

// TestReaderSteadyStateAllocations pins the reader's cost model: once its
// scratch has seen the longest window, a Load and the reads of a Propose
// allocate nothing.
func TestReaderSteadyStateAllocations(t *testing.T) {
	l, err := NewRolling([]int{8, 8, 8, 8, 8, 8, 8, 8}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Advance(40); err != nil { // windows below wrap the ring
		t.Fatal(err)
	}
	r := l.NewReader()
	r.Load(40, 10)
	sink := 0
	start := 40
	allocs := testing.AllocsPerRun(200, func() {
		duration := 1 + start%10
		r.Load(start, duration)
		for j := 0; j < 8; j++ {
			sink += r.ResidualWindow(j, start, duration)
		}
		if start++; start > 90 {
			start = 40
		}
	})
	if allocs != 0 || sink == 0 {
		t.Fatalf("Load + 8 reads allocate %v/op (read sum %d), want 0", allocs, sink)
	}
}

// TestReaderConcurrentWithWriters runs two readers against two goroutines
// reserving and releasing and one advancing the window. Under -race it
// proves a reader shares nothing with the ledger outside the lock; on its
// own it checks that each load is one cut: the window minimum a reader
// reports is the minimum of the cells it reports, whatever lands between
// the reads. A second round checks that no Load keeps a copy a write has
// overtaken.
func TestReaderConcurrentWithWriters(t *testing.T) {
	const (
		window   = 16
		capacity = 8
	)
	l, err := NewRolling([]int{capacity, capacity, capacity}, window)
	if err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				j, dur, units := rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(3)
				start := l.Base() + rng.Intn(window-dur+1)
				ok, err := l.ReserveWindow(j, start, dur, units)
				if err != nil && !errors.Is(err, ErrBadSlot) {
					t.Errorf("ReserveWindow: %v", err)
					return
				}
				if !ok {
					continue
				}
				// The held units keep the base at or before start, so the
				// release addresses a live window.
				if err := l.Release(j, start, dur, units); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}(int64(g + 1))
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			r := l.NewReader()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dur := 1 + rng.Intn(6)
				start := l.Base() + rng.Intn(window-dur+1)
				r.Load(start, dur)
				for j := 0; j < 3; j++ {
					low, cells := r.ResidualWindow(j, start, dur), capacity
					for s := start; s < start+dur; s++ {
						cells = min(cells, r.Residual(j, s))
					}
					// Once the window is retired the ledger answers instead
					// of the copy, read by read; only a live one is a cut.
					if l.Base() <= start && (low != cells || low < 0 || low > capacity) {
						t.Errorf("reader %d: window minimum %d, minimum of its cells %d (cloudlet %d, [%d,+%d))",
							seed, low, cells, j, start, dur)
						return
					}
				}
			}
		}(int64(g + 11))
	}
	for advanced := 0; advanced < 4*window; {
		base := l.Base()
		if err := l.Advance(base + 1); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if l.Base() != base {
			advanced++
		}
	}
	close(stop)
	writers.Wait()
	readers.Wait()

	// The Load that keeps its copy, against writers that only ever add usage
	// (so every residual only falls): what a reader answers after a Load lies
	// between the ledger's own answer taken just before that Load and the one
	// taken just after. A Load that kept a copy it should have replaced reads
	// above the first.
	l, err = New([]int{capacity, capacity, capacity}, window)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var kept atomic.Uint64
	var started sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		started.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			r := l.NewReader()
			for round := 0; ; round++ {
				select {
				case <-done:
					loads, copies := r.TakeLoads()
					kept.Add(loads - copies)
					return
				default:
				}
				if round == 0 {
					started.Done()
				}
				for k := 0; k < 4; k++ {
					j, dur := rng.Intn(3), 1+rng.Intn(6)
					before := l.ResidualWindow(j, 1, dur)
					r.Load(1, dur)
					got := r.ResidualWindow(j, 1, dur)
					if after := l.ResidualWindow(j, 1, dur); got > before || got < after {
						t.Errorf("reader %d: window minimum %d after a Load, the ledger said %d before it and %d after (cloudlet %d, [1,+%d))",
							seed, got, before, after, j, dur)
						return
					}
				}
				runtime.Gosched() // on one processor, the writers' turn
			}
		}(int64(g + 31))
	}
	// The writers start once both readers run, and pause between writes so
	// that most Loads find nothing written since the one before.
	started.Wait()
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 500; n++ {
				dur := 1 + rng.Intn(4)
				if err := l.ForceReserve(rng.Intn(3), 1+rng.Intn(window-dur+1), dur, 1); err != nil {
					t.Errorf("ForceReserve: %v", err)
					return
				}
				time.Sleep(time.Microsecond)
			}
		}(int64(g + 21))
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if kept.Load() == 0 {
		t.Errorf("no Load kept its copy: the check above never saw one")
	}
}

// BenchmarkReaderLoad times what a pd-onsite Propose costs the ledger on
// the serving path: one Load of the request's window (1–10 slots, 256
// requests to a start slot, at every position of the ring, so a share of
// them wrap) and the eight window minima read back. An 8 × 64 rolling
// ledger, half full. hit leaves the ledger alone, as a run of rejections
// does, so all but the first few Loads at a slot keep their copy; miss
// reserves and releases one unit before every Load, as a run of admissions
// would, so every Load copies or refreshes — the cost of a Load before it
// could keep anything, plus the two writes. refresh loads one window of 10
// slots and then, 255 times, writes one row inside it and loads a part of
// it, so all but the first of its Loads re-copy one row of the eight.
func BenchmarkReaderLoad(b *testing.B) {
	caps := []int{40, 40, 40, 40, 40, 40, 40, 40}
	l, err := NewRolling(caps, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Advance(40); err != nil {
		b.Fatal(err)
	}
	for j := range caps {
		for s := 40; s < 104; s++ {
			if err := l.Reserve(j, s, 1, 10+(j*7+s*3)%21); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, name := range []string{"hit", "miss", "refresh"} {
		b.Run(name, func(b *testing.B) {
			r := l.NewReader()
			sink := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				duration := 1 + i%10
				start := 40 + (i/256)%(64-10+1)
				switch {
				case name == "miss":
					if err := l.Reserve(0, 103, 1, 1); err != nil {
						b.Fatal(err)
					}
					if err := l.Release(0, 103, 1, 1); err != nil {
						b.Fatal(err)
					}
				case name == "refresh" && i%256 == 0:
					r.Load(start, 10)
				case name == "refresh":
					j := i % len(caps)
					if err := l.Reserve(j, start+9, 1, 1); err != nil {
						b.Fatal(err)
					}
					if err := l.Release(j, start+9, 1, 1); err != nil {
						b.Fatal(err)
					}
				}
				r.Load(start, duration)
				for j := range caps {
					sink += r.ResidualWindow(j, start, duration)
				}
			}
			if sink == 0 {
				b.Fatal("nothing read")
			}
		})
	}
}
