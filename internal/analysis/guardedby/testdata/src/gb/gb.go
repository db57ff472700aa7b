// Package gb exercises the guardedby invariant: flagged accesses to
// fields annotated "guarded by <mu>".
package gb

import "sync"

// Engine mimics the serve engine's shape: a mutex, guarded books, and a
// mix of locked entry points, xxxLocked helpers, and buggy accessors.
type Engine struct {
	mu sync.Mutex

	slot    int            // guarded by mu
	revenue float64        // guarded by mu
	books   map[int]string // guarded by mu

	workers int // unguarded config, free to read
}

// Tick locks correctly and may touch everything.
func (e *Engine) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slot++
	e.advanceLocked()
}

// advanceLocked is called only by lock holders: accepted.
func (e *Engine) advanceLocked() {
	e.revenue += float64(e.slot)
	e.books[e.slot] = "tick"
}

// Slot reads without the lock: flagged.
func (e *Engine) Slot() int {
	return e.slot // want `reads Engine\.slot without holding gb\.Engine\.mu`
}

// Reset writes without the lock: flagged.
func (e *Engine) Reset() {
	e.slot = 0    // want `writes Engine\.slot without holding gb\.Engine\.mu`
	e.revenue = 0 // want `writes Engine\.revenue without holding gb\.Engine\.mu`
}

// helper has no in-package callers and does not lock: it is an
// unprotected entry point, so its access is flagged.
func (e *Engine) helper() {
	delete(e.books, 0) // want `reads Engine\.books without holding gb\.Engine\.mu`
}

// Workers reads unguarded config: clean.
func (e *Engine) Workers() int { return e.workers }

// NewEngine builds the value locally: construction-time writes through a
// fresh composite literal are exempt.
func NewEngine() *Engine {
	e := &Engine{books: make(map[int]string)}
	e.slot = 1
	e.revenue = 0
	return e
}

// RW mimics the schedulers: an RWMutex with readers and writers.
type RW struct {
	mu     sync.RWMutex
	prices []float64 // guarded by mu
}

// Price reads under RLock: accepted.
func (r *RW) Price(i int) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.prices[i]
}

// BadBump writes under only the read lock: flagged as a read-lock write.
func (r *RW) BadBump(i int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.prices[i]++ // want `writes RW\.prices under the read lock of gb\.RW\.mu`
}

// Bump writes under the write lock: accepted.
func (r *RW) Bump(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prices[i]++
}

// readLockedHelper is reached only from Price-like read holders; its
// read is accepted, and the write path is still caught at BadBump.
func (r *RW) readLockedHelper(i int) float64 {
	return r.prices[i]
}

// Snapshot calls the helper under RLock: accepted.
func (r *RW) Snapshot() []float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]float64, len(r.prices))
	for i := range out {
		out[i] = r.readLockedHelper(i)
	}
	return out
}

// BadAnnotation exercises the annotation validator.
type BadAnnotation struct {
	n int // guarded by nosuch // want `guarded-by annotation names "nosuch", which is not a field of BadAnnotation`
	m int // guarded by k // want `guarded-by annotation names BadAnnotation\.k, which is not a sync\.Mutex`
	k int
}
