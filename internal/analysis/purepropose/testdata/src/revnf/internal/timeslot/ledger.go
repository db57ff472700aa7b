// Package timeslot is a stub of revnf/internal/timeslot: the Ledger type
// with the mutator method set the analyzer bans from Propose.
package timeslot

type Ledger struct {
	used [][]int
}

type Claim struct{ Cloudlet, Units int }

func (l *Ledger) ReserveAll(start, duration int, claims []Claim, force bool) (bool, error) {
	return true, nil
}

func (l *Ledger) ReleaseAll(start, duration int, claims []Claim) error { return nil }

func (l *Ledger) Reserve(cloudlet, start, duration, units int) error { return nil }

func (l *Ledger) ReserveWindow(cloudlet, start, duration, units int) (bool, error) {
	return true, nil
}

func (l *Ledger) ForceReserve(cloudlet, start, duration, units int) error { return nil }

func (l *Ledger) Release(cloudlet, start, duration, units int) error { return nil }

func (l *Ledger) Residual(cloudlet, slot int) int { return 0 }

// Pool stubs the refcounted shared-backup layer over the Ledger.
type Pool struct {
	refs map[int]int
}

type Pooled struct{ Group, Cloudlet, Units int }

func (p *Pool) ReserveAll(start, duration int, claims []Claim, pooled Pooled, force bool) (bool, error) {
	return true, nil
}

func (p *Pool) ReleaseAll(start, duration int, claims []Claim, pooled Pooled) error { return nil }

func (p *Pool) Acquire(group, cloudlet, start, duration, units int) error { return nil }

func (p *Pool) Release(group, start, duration int) error { return nil }

func (p *Pool) Refs(group, slot int) int { return 0 }
