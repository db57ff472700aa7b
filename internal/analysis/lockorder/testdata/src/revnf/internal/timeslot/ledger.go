// Package timeslot impersonates the real ledger so its lock class resolves
// to its canonical-order rank: Ledger.mu, below every scheduler's lock and
// above the leaves.
package timeslot

import "sync"

// Ledger mirrors the real shape: one mutex over the usage rows.
type Ledger struct {
	mu   sync.Mutex
	used [][]uint32
}

// NewLedger builds a ledger with n rows of w slots.
func NewLedger(n, w int) *Ledger {
	l := &Ledger{used: make([][]uint32, n)}
	for j := range l.used {
		l.used[j] = make([]uint32, w)
	}
	return l
}

// Advance touches every row under the one lock: clean.
func (l *Ledger) Advance() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for j := range l.used {
		l.used[j][0] = 0
	}
}

// Snapshot reads every row under the same lock: clean.
func (l *Ledger) Snapshot() []uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint32, len(l.used))
	for j := range l.used {
		out[j] = l.used[j][0]
	}
	return out
}

// Reader mirrors the real window snapshot: it takes the ledger's lock
// itself (same package, so the analyzer sees the acquisition directly).
type Reader struct {
	l    *Ledger
	free []uint32
}

// Load copies a column under the ledger's lock: clean.
func (r *Reader) Load() {
	r.l.mu.Lock()
	for j := range r.l.used {
		r.free[j] = r.l.used[j][0]
	}
	r.l.mu.Unlock()
}

// Bad re-enters the ledger while Load's lock is still held: the callee's
// transitive acquisition is the class already held.
func (r *Reader) Bad() []uint32 {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	return r.l.Snapshot() // want `call to timeslot\.Ledger\.Snapshot acquires timeslot\.Ledger\.mu while already holding it`
}
