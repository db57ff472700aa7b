// Package timeslot tracks per-cloudlet, per-slot computing resource usage
// over a window of discrete time slots. The Ledger is the authoritative
// record used by the simulation engine and the admission daemon: feasible
// schedulers reserve through it and are refused when capacity would be
// exceeded, while the raw primal-dual algorithm (whose analysis permits
// bounded violations) force-reserves and has its overcommitment measured.
//
// # Horizon modes
//
// A ledger runs in one of two modes, chosen at construction:
//
//   - Fixed (New): the paper's finite horizon T = {1..T}. The live window
//     is [1, T] forever; Advance is refused. This is the mode every batch
//     simulator and offline solver uses, and its behavior is pinned
//     bit-for-bit by the golden tests.
//   - Rolling (NewRolling): a circular window of W slots anchored at a
//     monotonically advancing base. The live window is [base, base+W-1];
//     Advance(base') retires the slots of [base, base'-1] up to the first
//     row still holding units, and recycles their storage for the slots
//     entering the far edge of the window. This is the mode a continuously
//     operating daemon runs: the clock never falls off the end of the
//     horizon.
//
// All addressing is in absolute slot numbers in both modes; the ring
// arithmetic is internal. A fixed ledger is exactly a rolling ledger whose
// base never moves, so every method behaves identically across modes for
// in-window arguments.
//
// # Footprints
//
// What an admitted request holds is a footprint: one Claim (units per slot)
// on each cloudlet of its placement, over one window [a, a+d-1], plus, for
// the shared scheme, a membership in a pooled backup row (Pool). A footprint
// is held whole or not at all — Theorem 2's "never violates capacity" and
// the pooled backups both assume it — and the rule lives here, not in the
// callers. One locked body books every footprint: it validates every claim
// and the pooled row, tests every claimed cloudlet's window minimum and then
// every cell of the pooled row no member covers yet (claims on the row's
// cloudlet counting against it), bumps the epoch once and only then writes
// the claims, the row and the group's refcounts. A refusal or an error has
// written nothing, there is nothing to roll back — no code in the tree
// undoes a booking — and no concurrent decision can read a footprint half
// booked. A release is the inverse, the group's coverage and every claim's
// and the row's underflow checked before the first subtraction. force skips
// the claims' capacity test and nothing else: it is the licence of the raw
// primal-dual algorithm, whose bounded violations the paper's analysis
// permits and Violations measures; the pooled row is never forced.
// ReserveAll and ReleaseAll are the footprint without a pooled row;
// ReserveWindow, Reserve, ForceReserve and Release its one-claim case;
// Pool.ReserveAll and ReleaseAll the whole of it, and Pool.Acquire and
// Release the row alone. The backup groups are ledger state under the one
// mutex, so a shared admission, like its expiry, is one lock round and one
// epoch bump.
//
// # Concurrency
//
// The Ledger is safe for concurrent use, behind one mutex: every operation
// that touches a usage cell takes it once, so a footprint over a window
// [a, a+d-1] is checked and committed in one critical section (two
// concurrent ReserveAll calls can never jointly oversubscribe cap_j), a
// held lock pins the window geometry (Advance, the only geometry writer,
// takes the same lock, so a reservation can never land on a row that is
// being recycled under it), and the whole-ledger aggregates (Violations,
// Utilization, Clone, ...) are point-in-time snapshots. The critical
// sections are tens of nanoseconds; striping the lock per cloudlet bought
// nothing, because every admission decision reads every cloudlet's row.
// The base is additionally mirrored in one atomic word, written under the
// lock, so Base stays lock-free.
//
// A Reader (NewReader) is how one goroutine reads many cells for at most
// one lock round: Load copies the residuals of a window, for every
// cloudlet, into scratch the Reader owns, and reads inside that window are
// then local loads — one consistent cut across rows, which row-by-row
// reads are not. The copy is kept while it is current: every mutation that
// changes a cell or the geometry bumps the epoch word with the lock held,
// once, before its first write (a refusal or an error bumps nothing); Load
// records the epoch under the lock, and a Load of a window inside the copy
// that finds it unchanged returns without locking. The bump precedes the
// write, so an unchanged epoch means no mutation had begun: the kept copy
// is what copying at that instant would produce, under an unmoved base.
// A write also stamps every row it writes with the epoch it bumped to, in
// the same critical section and after the last refusal test (Advance
// writes no cell and stamps nothing). A row whose stamp is at or below the
// epoch a copy recorded has not been written since that copy, so when the
// epoch has moved but the copy's window is still live, Load refreshes it
// under one lock round by re-copying only the rows stamped later: what it
// then holds is, row for row, what a cold copy at that instant would hold.
// A Reader belongs to one goroutine; what it answers is as of its last
// Load, a hint the arbitrating ReserveAll re-checks.
//
// # Out-of-range reads
//
// The read accessors (Used, Residual, ResidualWindow, Capacity)
// return 0 for an unknown cloudlet, a slot outside the live window, or a
// window leaving it, rather than panicking or returning an error. The
// sentinel is deliberately fail-safe in both directions:
//
//   - Residual/ResidualWindow = 0 reads as "no free capacity", so every
//     capacity-checking caller (all feasible schedulers gate on
//     ResidualWindow ≥ demand) rejects placements against out-of-range
//     cells instead of admitting them;
//   - Used = 0 reads as "no usage", so metrics and read endpoints report
//     an idle cell once the clock passes the window.
//
// In rolling mode the sentinel boundary moves with the base: a retired
// slot reads as out of range the moment Advance recycles it, and a slot
// entering the window starts reading as live (and empty). Callers that
// must distinguish "empty/full" from "out of range" use
// InRange/WindowInRange explicitly; the mutating methods always report
// out-of-range arguments as errors (ErrBadCloudlet/ErrBadSlot).
package timeslot

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Errors returned by the ledger.
var (
	ErrBadSlot      = errors.New("timeslot: slot outside the live window")
	ErrBadCloudlet  = errors.New("timeslot: unknown cloudlet")
	ErrBadUnits     = errors.New("timeslot: non-positive units")
	ErrOverCapacity = errors.New("timeslot: reservation exceeds capacity")
	ErrUnderflow    = errors.New("timeslot: release exceeds recorded usage")
	// ErrFixedHorizon reports an Advance against a fixed-horizon ledger.
	ErrFixedHorizon = errors.New("timeslot: ledger has a fixed horizon")
)

// Ledger records the computing units in use in each cloudlet at each slot
// of the live window. Slots are 1-based absolute slot numbers, matching
// the paper's T = {1..T}; in rolling mode they keep counting upward
// forever. The zero value is not usable; construct with New or NewRolling.
// All methods are safe for concurrent use; see the package comment for the
// consistency model.
type Ledger struct {
	window  int // number of live slots (T in fixed mode, W in rolling mode)
	caps    []int
	rolling bool // circular-window mode; a fixed ledger's geometry never moves

	used Ring[int] // units in use per cloudlet and live slot, and the window's geometry; guarded by mu
	// base mirrors used.Base(): Advance stores it with mu held, and it is
	// atomic only so that Base needs no lock.
	base atomic.Int64
	// epoch counts the mutations of cells and geometry: bumped with mu
	// held, before the mutation's first write (see "Concurrency").
	epoch atomic.Uint64
	stamp []uint64 // stamp[cloudlet]: the epoch of the row's last cell write; guarded by mu
	// groups holds the backup groups holding capacity, by ID, and free the
	// emptied ones (every ring cell zero) for the next group to reuse, so
	// steady-state churn allocates nothing (pool.go).
	groups map[int]*poolGroup // guarded by mu
	free   []*poolGroup       // guarded by mu
	// mu comes last, so that no cache line holds both it and base or epoch:
	// every lock round writes it, and a Reader's hits load those two.
	mu sync.Mutex
}

// New creates a fixed-horizon ledger for the given per-cloudlet capacities
// and horizon T. Its live window is [1, T] forever; Advance is refused.
func New(capacities []int, horizon int) (*Ledger, error) {
	return build(capacities, horizon, false)
}

// NewRolling creates a rolling-window ledger of window slots anchored at
// base slot 1. Advance moves the window forward, recycling retired rows.
func NewRolling(capacities []int, window int) (*Ledger, error) {
	return build(capacities, window, true)
}

func build(capacities []int, window int, rolling bool) (*Ledger, error) {
	if window < 1 {
		return nil, fmt.Errorf("%w: window %d", ErrBadSlot, window)
	}
	if len(capacities) == 0 {
		return nil, fmt.Errorf("%w: no capacities", ErrBadCloudlet)
	}
	for j, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("%w: cloudlet %d capacity %d", ErrBadUnits, j, c)
		}
	}
	l := &Ledger{window: window, caps: append([]int(nil), capacities...), used: NewRing[int](len(capacities), window),
		rolling: rolling, stamp: make([]uint64, len(capacities))}
	l.base.Store(1)
	return l, nil
}

// Window returns the number of live slots (T fixed, W rolling).
func (l *Ledger) Window() int { return l.window }

// Rolling reports whether the ledger runs a rolling window.
func (l *Ledger) Rolling() bool { return l.rolling }

// Base returns the first slot of the live window: always 1 for a fixed
// ledger, the current anchor for a rolling one. Lock-free.
func (l *Ledger) Base() int { return int(l.base.Load()) }

// MaxSlot returns the last slot of the live window (Base + Window - 1).
func (l *Ledger) MaxSlot() int {
	return l.Base() + l.window - 1
}

// Cloudlets returns the number of cloudlets tracked.
func (l *Ledger) Cloudlets() int { return len(l.caps) }

// inRangeAt is the range check against an already-read base.
func (l *Ledger) inRangeAt(cloudlet, slot, base int) bool {
	return cloudlet >= 0 && cloudlet < len(l.caps) && slot >= base && slot <= base+l.window-1
}

// windowInRangeAt is the window range check against an already-read base.
func (l *Ledger) windowInRangeAt(cloudlet, start, duration, base int) bool {
	return cloudlet >= 0 && cloudlet < len(l.caps) &&
		start >= base && duration >= 1 && start+duration-1 <= base+l.window-1
}

// InRange reports whether (cloudlet, slot) addresses a live cell. In
// rolling mode the answer moves with the base: retired slots fall out of
// range, slots entering the window come into it. The answer is advisory
// under concurrency — a concurrent Advance may move the base right after.
func (l *Ledger) InRange(cloudlet, slot int) bool {
	return l.inRangeAt(cloudlet, slot, l.Base())
}

// WindowInRange reports whether the window [start, start+duration-1] of the
// cloudlet lies fully inside the live window.
func (l *Ledger) WindowInRange(cloudlet, start, duration int) bool {
	return l.windowInRangeAt(cloudlet, start, duration, l.Base())
}

// Capacity returns cap_j for cloudlet j, or 0 for an unknown cloudlet.
func (l *Ledger) Capacity(cloudlet int) int {
	if cloudlet < 0 || cloudlet >= len(l.caps) {
		return 0
	}
	return l.caps[cloudlet]
}

// Used returns the units in use in cloudlet j at slot t, or the fail-safe
// sentinel 0 ("no usage") when out of range; use InRange to distinguish.
func (l *Ledger) Used(cloudlet, slot int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used.At(cloudlet, slot)
}

// Residual returns the free units of cloudlet j at slot t. It can be
// negative after forced reservations. Out of range it returns the
// fail-safe sentinel 0 ("no free capacity"), so capacity-gated callers
// reject rather than admit; use InRange to distinguish.
func (l *Ledger) Residual(cloudlet, slot int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inRangeAt(cloudlet, slot, l.used.Base()) {
		return l.caps[cloudlet] - l.used.At(cloudlet, slot)
	}
	return 0
}

// ResidualWindow returns the minimum residual capacity of cloudlet j over
// slots [start, start+duration-1]. For invalid arguments (unknown cloudlet
// or a window leaving the live window) it returns the fail-safe sentinel 0
// ("no free capacity"), which makes schedulers reject such windows; use
// WindowInRange to distinguish.
func (l *Ledger) ResidualWindow(cloudlet, start, duration int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.windowInRangeAt(cloudlet, start, duration, l.used.Base()) {
		return l.residualWindowLocked(cloudlet, start, duration)
	}
	return 0
}

// residualWindowLocked computes the window minimum with mu held (which
// pins the window; see the package comment).
func (l *Ledger) residualWindowLocked(cloudlet, start, duration int) int {
	head, tail := l.used.Span(cloudlet, start, start+duration-1)
	used := slices.Max(head)
	if len(tail) > 0 {
		used = max(used, slices.Max(tail))
	}
	return l.caps[cloudlet] - used
}

// CanReserve reports whether units fit in cloudlet j over the window
// without exceeding capacity. A true result is advisory under concurrency:
// another reservation may land first. Use ReserveAll for an atomic
// check-and-commit.
func (l *Ledger) CanReserve(cloudlet, start, duration, units int) bool {
	if units <= 0 {
		return false
	}
	return l.ResidualWindow(cloudlet, start, duration) >= units
}

// Claim is one cloudlet's share of a footprint: Units computing units in
// Cloudlet at every slot of the footprint's window.
type Claim struct {
	Cloudlet, Units int
}

// ReserveAll books a whole footprint — every claim over slots [start,
// start+duration-1] — or nothing. Under one hold of the lock it validates
// every claim, tests every claimed cloudlet's window minimum (claims naming
// one cloudlet twice are tested against their sum; force skips the test)
// and only then writes, with one epoch bump. It returns (true, nil) when
// the footprint was booked, (false, nil) when some cloudlet lacked the room
// — the arbitration signal concurrent admitters retry or reject on — and
// (false, err) for an unknown cloudlet, a window leaving the live window
// (in rolling mode: retired, or not yet entered) or non-positive units. A
// refusal or an error has written nothing and bumped nothing.
func (l *Ledger) ReserveAll(start, duration int, claims []Claim, force bool) (bool, error) {
	return l.book(start, duration, claims, nil, 1, force)
}

// ReleaseAll returns a footprint's units, all or none: every claim is
// validated and checked against the recorded usage before the first
// subtraction. It fails with ErrUnderflow when more units would be released
// than are in use at a covered slot, and with ErrBadSlot when the window is
// not live — in rolling mode a release against a recycled slot is an
// addressing error, never an underflow against the row now occupying its
// ring position.
func (l *Ledger) ReleaseAll(start, duration int, claims []Claim) error {
	_, err := l.book(start, duration, claims, nil, -1, false)
	return err
}

// book is the one locked body behind every reservation and release: sign
// +1 adds the claims' units to their windows and joins the pooled row (nil:
// none), -1 subtracts them and leaves it. Every check — validation, then
// the claims' cells, then the row's — precedes the epoch bump and the first
// write.
func (l *Ledger) book(start, duration int, claims []Claim, pooled *Pooled, sign int, force bool) (bool, error) {
	if len(claims) == 0 && pooled == nil {
		return true, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var g *poolGroup
	if pooled != nil {
		var err error
		if g, err = l.groupLocked(pooled, start, duration, sign); err != nil {
			return false, err
		}
	}
	for _, c := range claims {
		if c.Cloudlet < 0 || c.Cloudlet >= len(l.caps) {
			return false, fmt.Errorf("%w: %d", ErrBadCloudlet, c.Cloudlet)
		}
		if err := l.checkArgsLocked(start, duration, c.Units); err != nil {
			return false, err
		}
	}
	for k, c := range claims {
		// What the cloudlet must have: this claim on top of the earlier
		// claims against the same cloudlet.
		need := c.Units
		for _, e := range claims[:k] {
			if e.Cloudlet == c.Cloudlet {
				need += e.Units
			}
		}
		switch {
		case force: // licensed to overbook: written untested
		case sign > 0:
			if l.residualWindowLocked(c.Cloudlet, start, duration) < need {
				return false, nil
			}
		default:
			row, w := l.used.Row(c.Cloudlet), l.used.Window
			for t := start; t < start+duration; t++ {
				if u := row[w.Index(t)]; u < need {
					return false, fmt.Errorf("%w: cloudlet %d slot %d used %d release %d",
						ErrUnderflow, c.Cloudlet, t, u, need)
				}
			}
		}
	}
	if pooled != nil {
		if ok, err := l.rowFitsLocked(g, pooled, claims, start, duration, sign); !ok {
			return false, err
		}
	}
	epoch := l.epoch.Add(1)
	for _, c := range claims {
		l.stamp[c.Cloudlet] = epoch
		head, tail := l.used.Span(c.Cloudlet, start, start+duration-1)
		for _, run := range [2][]int{head, tail} {
			for i := range run {
				run[i] += sign * c.Units
			}
		}
	}
	if pooled != nil {
		// The row is the group's, or the one a group opened here lives on.
		if g != nil {
			l.stamp[g.cloudlet] = epoch
		} else {
			l.stamp[pooled.Cloudlet] = epoch
		}
		l.writeRowLocked(g, pooled, start, duration, sign)
	}
	return true, nil
}

// ReserveWindow is ReserveAll for a footprint of one claim, unforced.
func (l *Ledger) ReserveWindow(cloudlet, start, duration, units int) (bool, error) {
	return l.book(start, duration, []Claim{{cloudlet, units}}, nil, 1, false)
}

// Reserve is ReserveWindow with the refusal as an error: it fails with
// ErrOverCapacity (leaving the ledger unchanged) when any slot would exceed
// capacity.
func (l *Ledger) Reserve(cloudlet, start, duration, units int) error {
	ok, err := l.ReserveWindow(cloudlet, start, duration, units)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: cloudlet %d window [%d,%d] units %d free %d",
			ErrOverCapacity, cloudlet, start, start+duration-1, units,
			l.ResidualWindow(cloudlet, start, duration))
	}
	return nil
}

// ForceReserve is ReserveAll for one claim, forced: it books units
// regardless of capacity. It is used for the raw primal-dual algorithm
// whose bounded capacity violations are part of the paper's analysis; the
// resulting overcommitment shows up in Violations.
func (l *Ledger) ForceReserve(cloudlet, start, duration, units int) error {
	_, err := l.book(start, duration, []Claim{{cloudlet, units}}, nil, 1, true)
	return err
}

// Release is ReleaseAll for one claim.
func (l *Ledger) Release(cloudlet, start, duration, units int) error {
	_, err := l.book(start, duration, []Claim{{cloudlet, units}}, nil, -1, false)
	return err
}

// Advance moves a rolling ledger's window forward towards base, as far as
// its rows have drained: it retires the slots from the current base in
// order while every cloudlet's row at the slot is zero, and stops at the
// first row that still holds units — a footprint that must stay
// addressable until it is released. Base reports where the window ended
// up. The retired rows are recycled, empty, for the slots entering at the
// far edge. When every one of the W rows has drained the window jumps
// straight to base. Moving backward is an ErrBadSlot; a fixed-horizon
// ledger refuses with ErrFixedHorizon.
func (l *Ledger) Advance(base int) error {
	if !l.rolling {
		return fmt.Errorf("%w: cannot advance to %d", ErrFixedHorizon, base)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.used.Base()
	if base < cur {
		return fmt.Errorf("%w: advance to %d behind base %d", ErrBadSlot, base, cur)
	}
	retire := 0
	for retire < base-cur && retire < l.window && l.drainedLocked(l.used.Index(cur+retire)) {
		retire++
	}
	if retire == l.window {
		retire = base - cur
	}
	if retire == 0 {
		return nil
	}
	// Retired rows are zero, so the slots entering the window reuse them
	// as-is: re-basing is pure geometry.
	l.epoch.Add(1)
	l.used.Window.Advance(cur + retire)
	l.base.Store(int64(cur + retire))
	return nil
}

// drainedLocked reports whether every cloudlet's row at ring index i is
// zero. Caller holds mu.
func (l *Ledger) drainedLocked(i int) bool {
	for _, row := range l.used.rows {
		if row[i] != 0 {
			return false
		}
	}
	return true
}

// checkArgsLocked validates mutating-call arguments against the live
// window. Caller holds mu.
func (l *Ledger) checkArgsLocked(start, duration, units int) error {
	if duration < 1 || !l.used.Contains(start, start+duration-1) {
		base := l.used.Base()
		return fmt.Errorf("%w: window [%d,%d] live window [%d,%d]",
			ErrBadSlot, start, start+duration-1, base, base+l.window-1)
	}
	if units <= 0 {
		return fmt.Errorf("%w: %d", ErrBadUnits, units)
	}
	return nil
}

// Violation describes one overcommitted (cloudlet, slot) cell.
type Violation struct {
	// Cloudlet and Slot locate the overcommitted cell; Slot is absolute.
	Cloudlet, Slot int
	// Used and Capacity give the recorded usage and the limit.
	Used, Capacity int
}

// Violations returns every overcommitted live cell in cloudlet-then-slot
// order.
func (l *Ledger) Violations() []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := l.used.Base()
	var out []Violation
	for j := range l.caps {
		for t := base; t <= base+l.window-1; t++ {
			if u := l.used.At(j, t); u > l.caps[j] {
				out = append(out, Violation{Cloudlet: j, Slot: t, Used: u, Capacity: l.caps[j]})
			}
		}
	}
	return out
}

// MaxViolationRatio returns the largest Used/Capacity across all live
// cells: 1.0 or less means no violation, 0 an empty ledger.
func (l *Ledger) MaxViolationRatio() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	maxRatio := 0.0
	for j, row := range l.used.rows {
		for _, u := range row {
			if r := float64(u) / float64(l.caps[j]); r > maxRatio {
				maxRatio = r
			}
		}
	}
	return maxRatio
}

// Utilization returns the mean of Used/Capacity over every live
// (cloudlet, slot) cell. Overcommitted cells contribute ratios above 1.
func (l *Ledger) Utilization() float64 {
	if len(l.caps) == 0 || l.window == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for j, row := range l.used.rows {
		for _, u := range row {
			total += float64(u) / float64(l.caps[j])
		}
	}
	return total / float64(len(l.caps)*l.window)
}

// Clone returns an independent deep copy of the ledger's cells (same mode,
// same window position), used by solvers that explore hypothetical
// schedules. Backup groups are not copied: the clone has none.
func (l *Ledger) Clone() *Ledger {
	l.mu.Lock()
	defer l.mu.Unlock()
	used := l.used
	used.rows = make([][]int, len(l.used.rows))
	for j, row := range l.used.rows {
		used.rows[j] = append([]int(nil), row...)
	}
	c := &Ledger{window: l.window, caps: append([]int(nil), l.caps...), used: used, rolling: l.rolling,
		stamp: make([]uint64, len(l.caps))}
	c.base.Store(l.base.Load())
	return c
}
