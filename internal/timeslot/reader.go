package timeslot

// Reader is one goroutine's cached copy of a window of the ledger. Load
// makes the copy answer for [start, start+duration-1]. When the window lies
// inside the copy it keeps the copy if the ledger's epoch has not moved
// since (one atomic load, no lock; the package comment says why that is
// what copying again would produce), and otherwise, while the copy's window
// is live, refreshes it: one lock round that re-copies the rows written
// since. Any other Load takes the lock once and copies the residuals of
// every cloudlet. The read accessors (the core.CapacityView set) answer
// from the copy when their arguments fall inside it. Anything else —
// another window, an unknown cloudlet, nothing loaded because the window
// was not live, a window the ledger has retired since — is answered by the
// ledger itself, fail-safe sentinels included.
//
// What the copy answers is as of the last Load: one consistent cut across
// cloudlets, valid until the next Load, and like every capacity read a
// hint that ReserveAll re-checks. A Reader is not safe for concurrent
// use; give each goroutine its own.
type Reader struct {
	l *Ledger
	// The copied window (duration 0: none) and the ledger's epoch at the copy.
	start, duration int
	epoch           uint64
	free            []int // free[cloudlet*duration + slot-start]
	pmin            []int // pmin[i]: the minimum of its cloudlet's free[..i]
	// Loads, those that did not keep the copy as it was, and those of the
	// latter that refreshed it, since TakeLoads and TakeRefreshes.
	loads, misses, refreshes uint64
	// 128 bytes, a size class of 128-byte-aligned objects: the Readers of
	// two goroutines, allocated side by side, never share a cache line.
	_ [24]byte
}

// NewReader returns a Reader over the ledger with nothing loaded.
func (l *Ledger) NewReader() *Reader { return &Reader{l: l} }

// TakeLoads returns how many times Load was called since the last
// TakeLoads, and how many of those calls did not keep the copy they had as
// it was: they refreshed it or copied anew.
func (r *Reader) TakeLoads() (loads, misses uint64) {
	loads, misses = r.loads, r.misses
	r.loads, r.misses = 0, 0
	return loads, misses
}

// TakeRefreshes returns how many Loads since the last TakeRefreshes
// refreshed the copy they had rather than copying anew.
func (r *Reader) TakeRefreshes() uint64 {
	refreshes := r.refreshes
	r.refreshes = 0
	return refreshes
}

// Load makes the copy answer for the window [start, start+duration-1], or
// for nothing when that window is not live. It allocates only when it
// copies a window longer than any before.
func (r *Reader) Load(start, duration int) {
	l := r.l
	r.loads++
	inside := duration >= 1 && start >= r.start && start+duration <= r.start+r.duration
	if inside && l.epoch.Load() == r.epoch {
		return
	}
	r.misses++
	if duration < 1 || duration > l.window {
		r.duration = 0
		return
	}
	if need := len(l.caps) * duration; cap(r.free) < need {
		r.free, r.pmin = make([]int, need), make([]int, need)
	}
	l.mu.Lock()
	base := l.used.Base()
	switch {
	case inside && r.start >= base:
		// The copy's window is still live: only the rows written since the
		// copy differ from what copying it again would produce.
		r.refreshes++
		for j, stamp := range l.stamp {
			if stamp > r.epoch {
				r.copyRow(j)
			}
		}
	case l.windowInRangeAt(0, start, duration, base):
		r.start, r.duration = start, duration
		for j := range l.caps {
			r.copyRow(j)
		}
	default:
		r.duration = 0
		l.mu.Unlock()
		return
	}
	r.epoch = l.epoch.Load()
	l.mu.Unlock()
}

// copyRow copies the cloudlet's residuals over the copy's window, the
// ring's two runs of it, and their prefix minima. Caller holds the ledger's
// mu.
func (r *Reader) copyRow(cloudlet int) {
	l, duration := r.l, r.duration
	head, tail := l.used.Span(cloudlet, r.start, r.start+duration-1)
	capacity, at := l.caps[cloudlet], cloudlet*duration
	free, pmin := r.free[at:at+duration], r.pmin[at:at+duration]
	low := copyFree(free, pmin, head, capacity, capacity)
	copyFree(free[len(head):], pmin[len(head):], tail, capacity, low)
}

// copyFree writes capacity-used[k] into free[k] and the smallest value
// written so far, or low if that is smaller, into pmin[k]; it returns the
// last of those minima.
func copyFree(free, pmin, used []int, capacity, low int) int {
	free, pmin = free[:len(used)], pmin[:len(used)]
	for k, u := range used {
		f := capacity - u
		free[k] = f
		if f < low {
			low = f
		}
		pmin[k] = low
	}
	return low
}

// holds reports whether the copy answers for [start, start+duration-1] of
// the cloudlet: the window lies inside the loaded one, and the ledger has
// not advanced past the loaded window's first slot since.
func (r *Reader) holds(cloudlet, start, duration int) bool {
	return cloudlet >= 0 && cloudlet < len(r.l.caps) && duration >= 1 &&
		start >= r.start && start+duration <= r.start+r.duration && r.start >= r.l.Base()
}

// Capacity returns cap_j, as Ledger.Capacity does.
func (r *Reader) Capacity(cloudlet int) int { return r.l.Capacity(cloudlet) }

// Residual returns the free units of the cloudlet at the slot, as
// Ledger.Residual does.
func (r *Reader) Residual(cloudlet, slot int) int {
	if !r.holds(cloudlet, slot, 1) {
		return r.l.Residual(cloudlet, slot)
	}
	return r.free[cloudlet*r.duration+slot-r.start]
}

// ResidualWindow returns the minimum residual of the cloudlet over
// [start, start+duration-1], as Ledger.ResidualWindow does: one load when
// the window begins where the copy does, a scan of its cells otherwise.
func (r *Reader) ResidualWindow(cloudlet, start, duration int) int {
	if !r.holds(cloudlet, start, duration) {
		return r.l.ResidualWindow(cloudlet, start, duration)
	}
	at := cloudlet*r.duration + start - r.start
	if start == r.start {
		return r.pmin[at+duration-1]
	}
	low := r.free[at]
	for _, free := range r.free[at+1 : at+duration] {
		if free < low {
			low = free
		}
	}
	return low
}
