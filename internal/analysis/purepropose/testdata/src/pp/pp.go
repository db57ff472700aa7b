// Package pp exercises the purepropose invariant over stub
// implementations of the core.TwoPhaseScheduler contract.
package pp

import (
	"sync"

	"revnf/internal/core"
	"revnf/internal/dual"
	"revnf/internal/timeslot"
	"revnf/internal/trace"
)

// DirectWrite mutates its own fields inside Propose.
type DirectWrite struct {
	lambda []float64
	count  int
}

func (s *DirectWrite) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.lambda[0] = 1 // want `Propose writes receiver state`
	s.count++       // want `Propose writes receiver state`
	return core.Placement{}, true
}

func (s *DirectWrite) Commit(req core.Request, p core.Placement) {}
func (s *DirectWrite) Abort(req core.Request, p core.Placement)  {}

// Transitive reaches the write through a same-package helper method; the
// diagnostic lands on the call site in Propose, not on the helper.
type Transitive struct {
	lambda []float64
}

func (s *Transitive) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.updateDuals(req) // want `Propose calls updateDuals, which writes receiver state`
	return core.Placement{}, true
}

func (s *Transitive) updateDuals(req core.Request) {
	s.lambda[0] = 2
}

// Commit may call the same helper freely: mutation in Commit is the point.
func (s *Transitive) Commit(req core.Request, p core.Placement) { s.updateDuals(req) }
func (s *Transitive) Abort(req core.Request, p core.Placement)  {}

// Deep reaches a write two method hops away.
type Deep struct{ n int }

func (s *Deep) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.bump() // want `Propose calls bump, which transitively writes receiver state \(via inc\)`
	return core.Placement{}, true
}

func (s *Deep) bump() { s.inc() }
func (s *Deep) inc()  { s.n++ }

func (s *Deep) Commit(req core.Request, p core.Placement) {}
func (s *Deep) Abort(req core.Request, p core.Placement)  {}

// LedgerTouch reserves capacity inside Propose — the engine's job.
type LedgerTouch struct {
	ledger *timeslot.Ledger
}

func (s *LedgerTouch) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	_ = s.ledger.Reserve(0, 1, 1, 1)             // want `reserving capacity is the engine's job`
	_, _ = s.ledger.ReserveAll(1, 1, nil, false) // want `reserving capacity is the engine's job`
	_ = s.ledger.ReleaseAll(1, 1, nil)           // want `reserving capacity is the engine's job`
	return core.Placement{}, true
}

func (s *LedgerTouch) Commit(req core.Request, p core.Placement) {}
func (s *LedgerTouch) Abort(req core.Request, p core.Placement)  {}

// Pure is the blessed shape: price reads under the read lock, writes only
// to locals, ledger reads through the capacity view. Nothing is flagged.
type Pure struct {
	mu     sync.RWMutex
	lambda []float64
}

func (s *Pure) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	price := 0.0
	for _, l := range s.lambda {
		price += l
	}
	if price > 1 {
		return core.Placement{}, false
	}
	return core.Placement{Cloudlet: view.Residual(0, 1)}, true
}

func (s *Pure) Commit(req core.Request, p core.Placement) {
	s.mu.Lock()
	s.lambda[0] = 3 // Commit owns mutation; not this analyzer's business
	s.mu.Unlock()
}

func (s *Pure) Abort(req core.Request, p core.Placement) {}

// RecorderEmit is the observability carve-out: emitting a decision trace
// into an injected trace.Recorder from Propose — directly or through a
// same-package helper — is NOT state mutation (the core contract blesses
// it: traces never feed back into admission decisions). Nothing here is
// flagged; the Recorder methods live in another package, and the helper
// writes only locals.
type RecorderEmit struct {
	mu     sync.RWMutex
	lambda []float64
	rec    trace.Recorder
}

func (s *RecorderEmit) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := s.rec.Sample(req.ID)
	s.mu.RLock()
	price := 0.0
	for _, l := range s.lambda {
		price += l
	}
	s.mu.RUnlock()
	if tracing {
		s.recordPropose(req, price)
	}
	return core.Placement{Cloudlet: view.Residual(0, 1)}, price <= 1
}

func (s *RecorderEmit) recordPropose(req core.Request, price float64) {
	dt := &trace.DecisionTrace{Request: req.ID}
	s.rec.Record(dt)
}

func (s *RecorderEmit) Commit(req core.Request, p core.Placement) {}
func (s *RecorderEmit) Abort(req core.Request, p core.Placement)  {}

// NotAScheduler has a Propose method but does not implement the contract,
// so its writes are out of scope.
type NotAScheduler struct{ n int }

func (s *NotAScheduler) Propose() { s.n++ }

// PoolTouch joins a shared-backup pool inside Propose — acquiring pooled
// capacity is the engine's job, after arbitration.
type PoolTouch struct {
	pool *timeslot.Pool
}

func (s *PoolTouch) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	_ = s.pool.Acquire(0, 1, 1, 1, 1)                             // want `reserving capacity is the engine's job`
	_, _ = s.pool.ReserveAll(1, 1, nil, timeslot.Pooled{}, false) // want `reserving capacity is the engine's job`
	_ = s.pool.ReleaseAll(1, 1, nil, timeslot.Pooled{})           // want `reserving capacity is the engine's job`
	return core.Placement{}, true
}

func (s *PoolTouch) Commit(req core.Request, p core.Placement) {}
func (s *PoolTouch) Abort(req core.Request, p core.Placement)  {}

// PoolRead only reads pool state from Propose; refcount reads are not
// capacity mutation and are not flagged.
type PoolRead struct {
	pool *timeslot.Pool
}

func (s *PoolRead) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	return core.Placement{}, s.pool.Refs(0, 1) < 4
}

func (s *PoolRead) Commit(req core.Request, p core.Placement) {}
func (s *PoolRead) Abort(req core.Request, p core.Placement)  {}

// PriceWrite updates, ages and clears dual-price state inside Propose. The
// writes happen in the dual package, where the receiver-write rule cannot
// see them; the analyzer knows the kernel's writers by name.
type PriceWrite struct {
	prices dual.Table
	ref    []uint16
}

func (s *PriceWrite) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.prices.Update(0, 1, 2, 1.5, 0.5) // want `Propose calls revnf/internal/dual\.Table\.Update; all scheduler mutation belongs in Commit`
	s.prices.Advance(3)                // want `Propose calls revnf/internal/dual\.Table\.Advance`
	s.prices.Window.Advance(3)         // want `Propose calls revnf/internal/dual\.Window\.Advance`
	dual.ClearRing(s.ref, 0, 1)        // want `Propose calls revnf/internal/dual\.ClearRing`
	s.bump()                           // want `Propose calls bump, which writes dual-price state`
	return core.Placement{}, true
}

func (s *PriceWrite) bump() { s.prices.Update(0, 1, 2, 1.5, 0.5) }

func (s *PriceWrite) Commit(req core.Request, p core.Placement) { s.bump() }
func (s *PriceWrite) Abort(req core.Request, p core.Placement)  {}

// PriceRead is the blessed shape over the kernel: the window test, price
// sums, point reads and a lockstep walk over Row/Index only read, and
// clearing scratch on Propose's own stack is not scheduler state. Nothing
// is flagged.
type PriceRead struct {
	mu     sync.RWMutex
	prices dual.Table
	ref    []uint16
}

func (s *PriceRead) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.prices.Contains(1, 2) {
		return core.Placement{}, false
	}
	price := s.prices.Sum(0, 1, 2, 1) + s.prices.At(0, 1)
	row, i := s.prices.Row(0), s.prices.Index(1)
	if s.ref[i] == 0 {
		price += row[i]
	}
	var scratch [4]float64
	dual.ClearRing(scratch[:], 0, 1)
	return core.Placement{}, price <= 1
}

func (s *PriceRead) Commit(req core.Request, p core.Placement) {}
func (s *PriceRead) Abort(req core.Request, p core.Placement)  {}
