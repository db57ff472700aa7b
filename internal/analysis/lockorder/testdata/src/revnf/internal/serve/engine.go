// Package serve impersonates the real engine so cross-package summary
// edges resolve against canonical ranks: Engine.mu may nest over the
// ledger's locks, but a leaf like StreamServer.mu may not.
package serve

import (
	"sync"

	"revnf/internal/shared"
	"revnf/internal/timeslot"
)

// Engine mirrors the real shape: the engine mutex above a ledger.
type Engine struct {
	mu     sync.Mutex
	ledger *timeslot.Ledger
}

// Tick holds the engine lock across a ledger advance — the summary
// attributes advMu and mus[*] to the call, both ranked after Engine.mu:
// clean.
func (e *Engine) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ledger.Advance()
}

// StreamServer's mutex is a leaf: ranked after every ledger class.
type StreamServer struct {
	mu sync.Mutex
	e  *Engine
}

// Bad calls into the ledger while holding the leaf lock: both summary
// classes invert the canonical order.
func (s *StreamServer) Bad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.ledger.Advance() // want `acquires timeslot\.Ledger\.advMu while holding serve\.StreamServer\.mu` `acquires timeslot\.Ledger\.mus\[\*\] while holding serve\.StreamServer\.mu`
}

// BadAdvance advances a pd-shared scheduler under the leaf lock: the
// summary attributes sched.mu to the call, which ranks before it.
func (s *StreamServer) BadAdvance(sched *shared.Scheduler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sched.AdvanceWindow(2) // want `acquires sched\.mu while holding serve\.StreamServer\.mu` `acquires timeslot\.Ledger\.advMu while holding serve\.StreamServer\.mu` `acquires timeslot\.Ledger\.mus\[\*\] while holding serve\.StreamServer\.mu`
}
