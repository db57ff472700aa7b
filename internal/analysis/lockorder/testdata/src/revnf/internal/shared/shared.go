// Package shared impersonates the pd-shared scheduler so its mutex folds
// into the abstract sched.mu class like the other schedulers' do.
package shared

import (
	"sync"

	"revnf/internal/core"
	"revnf/internal/timeslot"
)

// Scheduler mirrors the real shape: one RWMutex over the window state.
type Scheduler struct {
	mu     sync.RWMutex
	base   int
	ledger *timeslot.Ledger
	next   core.WindowAdvancer
}

// AdvanceWindow reads the ledger under the scheduler lock: sched.mu ranks
// before the ledger's, clean.
func (s *Scheduler) AdvanceWindow(base int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = base
	_ = s.ledger.Snapshot()
}

// Forward advances another scheduler while holding its own lock. Both are
// sched.mu, but only because shared.Scheduler.mu is aliased to it: left
// unranked, the nesting would be an edge between two unrelated classes
// with no cycle, and go unreported.
func (s *Scheduler) Forward(base int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next.AdvanceWindow(base) // want `acquires sched\.mu while already holding it`
}
