package timeslot

// Reader is one goroutine's copy of a window of the ledger: Load takes the
// ledger's lock once and copies the residuals of [start, start+duration-1]
// for every cloudlet, and the read accessors (the core.CapacityView set)
// answer from that copy when their arguments fall inside it. Anything else
// — another window, an unknown cloudlet, nothing loaded because the window
// was not live, a window the ledger has retired since — is answered by the
// ledger itself, fail-safe sentinels included.
//
// What the copy answers is as of the last Load: one consistent cut across
// cloudlets, valid until the next Load, and like every capacity read a
// hint that ReserveWindow re-checks. A Reader is not safe for concurrent
// use; give each goroutine its own.
type Reader struct {
	l *Ledger
	// The loaded window; duration 0 when nothing is loaded.
	start, duration int
	free            []int // free[cloudlet*duration + slot-start]
	lowest          []int // lowest[cloudlet]: the minimum over the loaded window
}

// NewReader returns a Reader over the ledger with nothing loaded.
func (l *Ledger) NewReader() *Reader {
	return &Reader{l: l, lowest: make([]int, len(l.caps))}
}

// Load replaces the copy with the window [start, start+duration-1], or
// with nothing when that window is not live. It allocates only when the
// window is longer than any loaded before.
func (r *Reader) Load(start, duration int) {
	l := r.l
	r.duration = 0
	if duration < 1 || duration > l.window {
		return
	}
	if need := len(l.caps) * duration; cap(r.free) < need {
		r.free = make([]int, need)
	}
	l.mu.Lock()
	base, origin := l.geometry()
	if !l.windowInRangeAt(0, start, duration, base) {
		l.mu.Unlock()
		return
	}
	// The window is at most two contiguous runs of the ring.
	i := l.idxAt(start, base, origin)
	head := min(duration, l.window-i)
	free := r.free
	for j, row := range l.used {
		capacity := l.caps[j]
		low := copyFree(free[:head], row[i:i+head], capacity, capacity)
		if head < duration {
			low = copyFree(free[head:duration], row[:duration-head], capacity, low)
		}
		r.lowest[j] = low
		free = free[duration:]
	}
	l.mu.Unlock()
	r.start, r.duration = start, duration
}

// copyFree writes capacity-used[k] into out[k] and returns the smallest
// value written, or low if that is smaller.
func copyFree(out, used []int, capacity, low int) int {
	out = out[:len(used)]
	for k, u := range used {
		f := capacity - u
		out[k] = f
		if f < low {
			low = f
		}
	}
	return low
}

// holds reports whether the copy answers for [start, start+duration-1] of
// the cloudlet: the window lies inside the loaded one, and the ledger has
// not advanced past the loaded window's first slot since.
func (r *Reader) holds(cloudlet, start, duration int) bool {
	return cloudlet >= 0 && cloudlet < len(r.lowest) && duration >= 1 &&
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
// [start, start+duration-1], as Ledger.ResidualWindow does.
func (r *Reader) ResidualWindow(cloudlet, start, duration int) int {
	if !r.holds(cloudlet, start, duration) {
		return r.l.ResidualWindow(cloudlet, start, duration)
	}
	if duration == r.duration {
		return r.lowest[cloudlet]
	}
	at := cloudlet*r.duration + start - r.start
	low := r.free[at]
	for _, free := range r.free[at+1 : at+duration] {
		if free < low {
			low = free
		}
	}
	return low
}
