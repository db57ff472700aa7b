package timeslot

import (
	"errors"
	"fmt"
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

// Pool books reference-counted group reservations in a Ledger for the
// shared-backup scheme: a backup group's row (units computing units on one
// cloudlet) is held in the ledger exactly once per slot regardless of how
// many members' windows cover that slot, and released only when the last
// covering member leaves. Per (group, slot) the ledger keeps a refcount
// word; a cell's units move on the 0→1 edge of a join and the 1→0 edge of
// a leave, so the conservation invariant is
//
//	ledger units held for group g at slot t = units(g) · [refcount(g,t) > 0]
//
// (tested against a model map in pool_test.go). ReserveAll and ReleaseAll
// book a whole footprint, claims and membership together, in the ledger's
// one locked body (see the package comment, "Footprints"; model in
// footprint_test.go); Acquire and Release are the no-claim case of the same
// body, so every member holds its whole window or nothing.
//
// The groups are ledger state, guarded by the ledger's mutex: the Pool is a
// handle and holds no lock of its own, and pools over one ledger share its
// groups. A group's refcounts are a ring of Window() counters addressed as
// the ledger's rows are: live slots map to distinct cells whatever the
// base, and every call refuses slots outside the window before touching the
// ring. No cell needs clearing when the window moves: Advance stops at the
// first slot that holds units, which by the invariant above every cell with
// references does, so a slot entering the window inherits a zero.
type Pool struct {
	led *Ledger
}

// poolGroup is one backup group's footprint: the hosting cloudlet, the
// per-slot units of its single pooled instance, and the member refcount
// per covered slot. Under Ledger.mu, like the map that holds it.
type poolGroup struct {
	cloudlet int
	units    int
	ref      []int32 // ring: covering members of each live slot, at the ledger's ring index
	held     int     // cells with ref > 0; the group is dropped at 0
}

// NewPool returns a pool over the ledger. The ledger must be non-nil; the
// pool holds no capacity until the first Acquire.
func NewPool(led *Ledger) *Pool {
	return &Pool{led: led}
}

// Pooled names a footprint's membership in a backup group: Units computing
// units on Cloudlet, held once per slot for all of Group's members. The zero
// Group means the footprint has no pooled row.
type Pooled struct {
	Group, Cloudlet, Units int
}

// ReserveAll books a whole footprint or nothing: the claims as
// Ledger.ReserveAll books them (force applies to them alone) and the pooled
// membership, in one critical section. The pooled row's uncovered cells are
// tested on top of the claims, so a claim on the row's cloudlet counts
// against them. The results are Ledger.ReserveAll's: (false, nil) is a
// refusal for lack of room, on a claim or on the pooled row, and a refusal
// or an error has written nothing.
func (p *Pool) ReserveAll(start, duration int, claims []Claim, pooled Pooled, force bool) (bool, error) {
	if pooled.Group == 0 {
		return p.led.book(start, duration, claims, nil, 1, force)
	}
	return p.led.book(start, duration, claims, &pooled, 1, force)
}

// ReleaseAll is ReserveAll's inverse, equally all-or-nothing: the group's
// coverage, every claim's underflow and the pooled row's underflow are
// checked before the first subtraction. Only pooled.Group is read; the row
// released is the group's.
func (p *Pool) ReleaseAll(start, duration int, claims []Claim, pooled Pooled) error {
	row := &pooled
	if pooled.Group == 0 {
		row = nil
	}
	_, err := p.led.book(start, duration, claims, row, -1, false)
	return err
}

// Acquire joins one member (window [start, start+duration-1], per-slot
// units) to the group, creating the group on first use. Slots already
// covered by other members only gain a reference; uncovered slots are
// reserved in the ledger. A refusal returns ErrOverCapacity, and any error
// leaves ledger and pool unchanged.
func (p *Pool) Acquire(group, cloudlet, start, duration, units int) error {
	ok, err := p.led.book(start, duration, nil, &Pooled{group, cloudlet, units}, 1, false)
	if err == nil && !ok {
		err = fmt.Errorf("%w: group %d cloudlet %d window [%d,%d] units %d",
			ErrOverCapacity, group, cloudlet, start, start+duration-1, units)
	}
	return err
}

// Release drops one member's references over [start, start+duration-1].
// Slots whose refcount reaches zero release their ledger reservation; the
// group itself is dropped when its last reference goes. Releasing a slot
// the group does not cover (a slot outside the live window is covered by
// nobody) returns ErrNotCovered with nothing dropped, so a failed Release
// is also all-or-nothing.
func (p *Pool) Release(group, start, duration int) error {
	_, err := p.led.book(start, duration, nil, &Pooled{Group: group}, -1, false)
	return err
}

// Refs returns the member refcount of the group at the slot (0 when the
// group or slot is unknown). Tests use it to audit conservation.
func (p *Pool) Refs(group, slot int) int {
	l := p.led
	l.mu.Lock()
	defer l.mu.Unlock()
	g, ok := l.groups[group]
	if !ok || !l.used.Contains(slot, slot) {
		return 0
	}
	return int(g.ref[l.used.Index(slot)])
}

// Groups returns the number of groups currently holding capacity.
func (p *Pool) Groups() int {
	p.led.mu.Lock()
	defer p.led.mu.Unlock()
	return len(p.led.groups)
}

// groupLocked checks a pooled row before anything is tested or written and
// returns its group, nil for a reservation that opens one. A reservation's
// row needs a known cloudlet, positive units and a live window, and a group
// it joins must be of that cloudlet and those units; a release needs a
// group that covers every slot of the window. Caller holds mu.
func (l *Ledger) groupLocked(m *Pooled, start, duration, sign int) (*poolGroup, error) {
	g := l.groups[m.Group]
	if sign > 0 {
		if m.Cloudlet < 0 || m.Cloudlet >= len(l.caps) {
			return nil, fmt.Errorf("%w: %d", ErrBadCloudlet, m.Cloudlet)
		}
		if err := l.checkArgsLocked(start, duration, m.Units); err != nil {
			return nil, err
		}
		if g != nil && (g.cloudlet != m.Cloudlet || g.units != m.Units) {
			return nil, fmt.Errorf("%w: group %d is %d units on cloudlet %d, acquire wants %d on %d",
				ErrPoolMismatch, m.Group, g.units, g.cloudlet, m.Units, m.Cloudlet)
		}
		return g, nil
	}
	if duration < 1 {
		return nil, fmt.Errorf("%w: duration %d", ErrBadSlot, duration)
	}
	if g == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownGroup, m.Group)
	}
	for t := start; t < start+duration; t++ {
		if !l.used.Contains(t, t) || g.ref[l.used.Index(t)] < 1 {
			return nil, fmt.Errorf("%w: group %d slot %d", ErrNotCovered, m.Group, t)
		}
	}
	return g, nil
}

// rowFitsLocked tests the pooled row against the cells the claims leave:
// a reservation must find room for the row's units on top of the claims'
// in every cell no member covers yet, a release must find both in every
// cell whose last member leaves. g is nil for a group being opened. Caller
// holds mu.
func (l *Ledger) rowFitsLocked(g *poolGroup, m *Pooled, claims []Claim, start, duration, sign int) (bool, error) {
	cloudlet, units, edge := m.Cloudlet, m.Units, int32(0)
	if g != nil {
		cloudlet, units = g.cloudlet, g.units
	}
	if sign < 0 {
		edge = 1
	}
	need := units
	for _, c := range claims {
		if c.Cloudlet == cloudlet {
			need += c.Units
		}
	}
	row, w := l.used.Row(cloudlet), l.used.Window
	for t := start; t < start+duration; t++ {
		if i := w.Index(t); g == nil || g.ref[i] == edge {
			switch {
			case sign > 0 && l.caps[cloudlet]-row[i] < need:
				return false, nil
			case sign < 0 && row[i] < need:
				return false, fmt.Errorf("%w: group %d cloudlet %d slot %d used %d release %d",
					ErrUnderflow, m.Group, cloudlet, t, row[i], need)
			}
		}
	}
	return true, nil
}

// writeRowLocked moves the group's refcounts over the window and the row's
// units on every cell whose count leaves or reaches zero, opening the group
// (g nil) or dropping it when its last cell empties. Caller holds mu, and
// has tested the row.
func (l *Ledger) writeRowLocked(g *poolGroup, m *Pooled, start, duration, sign int) {
	if g == nil {
		if n := len(l.free); n > 0 {
			g, l.free = l.free[n-1], l.free[:n-1]
		} else {
			g = &poolGroup{ref: make([]int32, l.window)}
		}
		g.cloudlet, g.units = m.Cloudlet, m.Units
		if l.groups == nil {
			l.groups = make(map[int]*poolGroup)
		}
		l.groups[m.Group] = g
	}
	row, w := l.used.Row(g.cloudlet), l.used.Window
	for t := start; t < start+duration; t++ {
		i := w.Index(t)
		if sign > 0 && g.ref[i] == 0 {
			g.held++
			row[i] += g.units
		}
		if g.ref[i] += int32(sign); sign < 0 && g.ref[i] == 0 {
			g.held--
			row[i] -= g.units
		}
	}
	if g.held == 0 {
		delete(l.groups, m.Group)
		l.free = append(l.free, g)
	}
}
