package timeslot

import (
	"errors"
	"fmt"
	"sync"
)

// Pool errors.
var (
	// ErrUnknownGroup reports a Release (or query) against a group the
	// pool is not holding capacity for.
	ErrUnknownGroup = errors.New("timeslot: unknown backup group")
	// ErrPoolMismatch reports an Acquire whose cloudlet or units disagree
	// with the group's recorded footprint.
	ErrPoolMismatch = errors.New("timeslot: acquire does not match group footprint")
	// ErrNotCovered reports a Release over slots the group holds no
	// member references for.
	ErrNotCovered = errors.New("timeslot: release of uncovered slot")
)

// Pool layers reference-counted group reservations over a Ledger for the
// shared-backup scheme: a backup group's row (units computing units on one
// cloudlet) is reserved in the ledger exactly once per slot regardless of
// how many members' windows cover that slot, and released only when the
// last covering member leaves. Per (group, slot) the pool keeps a refcount
// word; the ledger transition happens on the 0→1 edge of Acquire and the
// 1→0 edge of Release, so the conservation invariant is
//
//	ledger units held for group g at slot t = units(g) · [refcount(g,t) > 0]
//
// (tested against a model map in pool_test.go). A failed Acquire rolls its
// partial ledger reservations back and leaves the pool unchanged, so every
// member either holds its whole window or nothing — the same all-or-
// nothing contract Ledger.ReserveAll gives the claims. ReserveAll and
// ReleaseAll extend it to a whole footprint, claims and membership
// together (model in footprint_test.go).
//
// A group's refcounts are a ring of Window() counters, slot t at cell
// t mod Window(): live slots map to distinct cells whatever the base, and
// both calls refuse slots outside the window before touching the ring. No
// cell needs clearing when the window moves: Ledger.Advance refuses to
// retire a slot that holds units, which by the invariant above every cell
// with references does, so a slot entering the window inherits a zero.
//
// The pool serializes itself with one mutex and calls into the ledger
// (which takes its own) while holding it; nothing calls back into the
// pool from the ledger, so the order pool.mu → ledger.mu is acyclic.
// In rolling mode the engine releases expired members before advancing the
// ledger, so retired slots have always drained their pooled rows.
type Pool struct {
	led *Ledger

	mu     sync.Mutex
	groups map[int]*poolGroup // guarded by mu
	// free holds emptied groups (every ring cell zero) for the next group
	// to reuse, so steady-state churn allocates nothing.
	free []*poolGroup // guarded by mu
}

// poolGroup is one backup group's footprint: the hosting cloudlet, the
// per-slot units of its single pooled instance, and the member refcount
// per covered slot.
type poolGroup struct {
	cloudlet int
	units    int
	ref      []int32 // ring: covering members of slot t at t mod len; protected by Pool.mu
	held     int     // cells with ref > 0; the group is dropped at 0
}

// NewPool returns a pool over the ledger. The ledger must be non-nil; the
// pool holds no capacity until the first Acquire.
func NewPool(led *Ledger) *Pool {
	return &Pool{led: led, groups: make(map[int]*poolGroup)}
}

// Pooled names a footprint's membership in a backup group: Units computing
// units on Cloudlet, held once per slot for all of Group's members. The zero
// Group means the footprint has no pooled row.
type Pooled struct {
	Group, Cloudlet, Units int
}

// ReserveAll books a whole footprint or nothing: the claims through
// Ledger.ReserveAll (force applies to them alone), then the pooled
// membership as Acquire books it. When the pooled row is refused or in
// error the claims are released again — with rollbackLocked the only place
// a booking is ever undone — so callers never hold part of a footprint.
// The results are Ledger.ReserveAll's: (false, nil) is a refusal for lack
// of room, on a claim or on the pooled row.
func (p *Pool) ReserveAll(start, duration int, claims []Claim, pooled Pooled, force bool) (bool, error) {
	if pooled.Group == 0 {
		return p.led.ReserveAll(start, duration, claims, force)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok, err := p.led.ReserveAll(start, duration, claims, force); !ok {
		return false, err
	}
	err := p.acquireLocked(pooled, start, duration)
	if err == nil {
		return true, nil
	}
	if rerr := p.led.ReleaseAll(start, duration, claims); rerr != nil {
		panic(fmt.Sprintf("timeslot: pool rollback failed: %v", rerr))
	}
	if errors.Is(err, ErrOverCapacity) {
		return false, nil
	}
	return false, err
}

// ReleaseAll is ReserveAll's inverse, equally all-or-nothing: the pooled
// membership is checked first, the claims go through Ledger.ReleaseAll, and
// only then are the member's references dropped, which cannot fail.
func (p *Pool) ReleaseAll(start, duration int, claims []Claim, pooled Pooled) error {
	if pooled.Group == 0 {
		return p.led.ReleaseAll(start, duration, claims)
	}
	return p.release(pooled.Group, start, duration, claims)
}

// Acquire joins one member (window [start, start+duration-1], per-slot
// units) to the group, creating the group on first use. Slots already
// covered by other members only gain a reference; uncovered slots are
// reserved in the ledger, and a refused reservation rolls back every slot
// this call reserved and returns the ledger's error (ErrOverCapacity,
// ErrBadSlot, ...) with the pool unchanged.
func (p *Pool) Acquire(group, cloudlet, start, duration, units int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acquireLocked(Pooled{group, cloudlet, units}, start, duration)
}

// acquireLocked is Acquire with mu held.
func (p *Pool) acquireLocked(m Pooled, start, duration int) error {
	if m.Cloudlet < 0 || m.Cloudlet >= p.led.Cloudlets() {
		return fmt.Errorf("%w: %d", ErrBadCloudlet, m.Cloudlet)
	}
	// The ledger's own argument check, up front: a slot outside the live
	// window would alias a live slot's cell.
	if err := p.led.checkArgsAt(start, duration, m.Units, p.led.Base()); err != nil {
		return err
	}
	g, ok := p.groups[m.Group]
	if ok && (g.cloudlet != m.Cloudlet || g.units != m.Units) {
		return fmt.Errorf("%w: group %d is %d units on cloudlet %d, acquire wants %d on %d",
			ErrPoolMismatch, m.Group, g.units, g.cloudlet, m.Units, m.Cloudlet)
	}
	if !ok {
		if n := len(p.free); n > 0 {
			g, p.free = p.free[n-1], p.free[:n-1]
		} else {
			g = &poolGroup{ref: make([]int32, p.led.Window())}
		}
		g.cloudlet, g.units = m.Cloudlet, m.Units
	}
	// Reserve the uncovered slots one at a time; the refcounts move only
	// once all are booked, so a mid-window refusal rolls back by walking
	// the same prefix again.
	w := len(g.ref)
	for t, i := start, start%w; t < start+duration; t++ {
		if g.ref[i] == 0 {
			if err := p.led.Reserve(m.Cloudlet, t, 1, m.Units); err != nil {
				p.rollbackLocked(g, start, t)
				if !ok {
					p.free = append(p.free, g)
				}
				return err
			}
		}
		if i++; i == w {
			i = 0
		}
	}
	for t, i := start, start%w; t < start+duration; t++ {
		if g.ref[i] == 0 {
			g.held++
		}
		g.ref[i]++
		if i++; i == w {
			i = 0
		}
	}
	if !ok {
		p.groups[m.Group] = g
	}
	return nil
}

// rollbackLocked releases what a refused Acquire reserved over [start,
// end-1]: the group's uncovered slots there. Caller holds mu.
func (p *Pool) rollbackLocked(g *poolGroup, start, end int) {
	for t := start; t < end; t++ {
		if g.ref[t%len(g.ref)] != 0 {
			continue
		}
		if err := p.led.Release(g.cloudlet, t, 1, g.units); err != nil {
			panic(fmt.Sprintf("timeslot: pool rollback failed: %v", err))
		}
	}
}

// Release drops one member's references over [start, start+duration-1].
// Slots whose refcount reaches zero release their ledger reservation; the
// group itself is dropped when its last reference goes. Releasing a slot
// the group does not cover (a slot outside the live window is covered by
// nobody) returns ErrNotCovered with nothing dropped, so a failed Release
// is also all-or-nothing.
func (p *Pool) Release(group, start, duration int) error {
	return p.release(group, start, duration, nil)
}

// release is the one body of Release and ReleaseAll: the member's coverage
// is checked, then the claims are returned, then the references dropped.
func (p *Pool) release(group, start, duration int, claims []Claim) error {
	if duration < 1 {
		return fmt.Errorf("%w: duration %d", ErrBadSlot, duration)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[group]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownGroup, group)
	}
	w := len(g.ref)
	base := p.led.Base()
	for t := start; t < start+duration; t++ {
		if t < base || t >= base+w || g.ref[t%w] < 1 {
			return fmt.Errorf("%w: group %d slot %d", ErrNotCovered, group, t)
		}
	}
	if err := p.led.ReleaseAll(start, duration, claims); err != nil {
		return err
	}
	for t, i := start, start%w; t < start+duration; t++ {
		if g.ref[i]--; g.ref[i] == 0 {
			g.held--
			if err := p.led.Release(g.cloudlet, t, 1, g.units); err != nil {
				panic(fmt.Sprintf("timeslot: pool release desynced from ledger: %v", err))
			}
		}
		if i++; i == w {
			i = 0
		}
	}
	if g.held == 0 {
		delete(p.groups, group)
		p.free = append(p.free, g)
	}
	return nil
}

// Covered reports whether the group holds the slot for at least one
// member (and therefore holds ledger capacity there).
func (p *Pool) Covered(group, slot int) bool {
	return p.Refs(group, slot) > 0
}

// Refs returns the member refcount of the group at the slot (0 when the
// group or slot is unknown). Tests use it to audit conservation.
func (p *Pool) Refs(group, slot int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[group]
	if !ok {
		return 0
	}
	if base := p.led.Base(); slot < base || slot >= base+len(g.ref) {
		return 0
	}
	return int(g.ref[slot%len(g.ref)])
}

// Groups returns the number of groups currently holding capacity.
func (p *Pool) Groups() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.groups)
}
