// Package serve impersonates the real engine so cross-package summary
// edges resolve against canonical ranks: Engine.mu may nest over the
// ledger's lock, but a leaf like StreamServer.mu may not.
package serve

import (
	"sync"

	"revnf/internal/core"
	"revnf/internal/timeslot"
)

// Engine mirrors the real shape: the engine mutex above a ledger and the
// reader the read endpoints load.
type Engine struct {
	mu     sync.Mutex
	ledger *timeslot.Ledger
	reader *timeslot.Reader
}

// Tick holds the engine lock across a ledger advance — the summary
// attributes Ledger.mu to the call, ranked after Engine.mu: clean.
func (e *Engine) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ledger.Advance()
}

// Cloudlets loads the read endpoints' reader under the engine lock; the
// summary attributes Ledger.mu to the Reader too: clean.
func (e *Engine) Cloudlets() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reader.Load()
}

// StreamServer's mutex is a leaf: ranked after the ledger's.
type StreamServer struct {
	mu sync.Mutex
	e  *Engine
}

// Bad calls into the ledger, directly and through a reader, while holding
// the leaf lock: the summary class inverts the canonical order. The second
// diagnostic fails without the Reader's summary entry.
func (s *StreamServer) Bad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.ledger.Advance() // want `acquires timeslot\.Ledger\.mu while holding serve\.StreamServer\.mu`
	s.e.reader.Load()    // want `acquires timeslot\.Ledger\.mu while holding serve\.StreamServer\.mu`
}

// BadCommit commits through an instantiated TwoPhase under the leaf lock:
// every class the summary keys to the generic contract ranks before it.
func (s *StreamServer) BadCommit(sched core.TwoPhase[int, string]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sched.Commit(1, "p") // want `acquires sched\.mu while holding serve\.StreamServer\.mu` `acquires timeslot\.Ledger\.mu while holding serve\.StreamServer\.mu` `acquires trace\.Store\.mu while holding serve\.StreamServer\.mu`
}
