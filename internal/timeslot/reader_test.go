package timeslot

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
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
// the reads.
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
		if err := l.Advance(l.Base() + 1); err == nil {
			advanced++
		} else if !errors.Is(err, ErrNotDrained) {
			t.Fatalf("Advance: %v", err)
		}
	}
	close(stop)
	writers.Wait()
	readers.Wait()
}

// BenchmarkReaderLoad times what a pd-onsite Propose costs the ledger on
// the serving path: one Load of the request's window (1–10 slots, at every
// position of the ring, so a share of them wrap) and the eight window
// minima read back from the copy. An 8 × 64 rolling ledger, half full.
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
	r := l.NewReader()
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		duration := 1 + i%10
		start := 40 + i%(64-duration+1)
		r.Load(start, duration)
		for j := range caps {
			sink += r.ResidualWindow(j, start, duration)
		}
	}
	if sink == 0 {
		b.Fatal("nothing read")
	}
}
