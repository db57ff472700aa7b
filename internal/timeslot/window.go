package timeslot

// Window maps the live slots [Base, Base+Len-1] onto a ring of Len cells:
// which slots are live, which ring cell a slot owns, which cells an
// advance retires. The ledger's rows stand on one, and so do the dual-price
// tables and the state that ages with them (DESIGN.md §10). Nothing here
// locks: a Window is plain data guarded by its owner's mutex.
type Window struct {
	base  int // first live slot
	start int // ring index of base
	n     int // ring length
}

// NewWindow returns the window [1, n].
func NewWindow(n int) Window { return Window{base: 1, n: n} }

// Base returns the first slot of the live window (1 until Advance).
func (w Window) Base() int { return w.base }

// Len returns the number of live slots, which is the ring length.
func (w Window) Len() int { return w.n }

// Contains reports whether every slot of [lo, hi] is live.
func (w Window) Contains(lo, hi int) bool {
	return lo >= w.base && hi <= w.base+w.n-1
}

// Clamp intersects [lo, hi] with the live window; ok is false when the
// intersection is empty.
func (w Window) Clamp(lo, hi int) (clo, chi int, ok bool) {
	if lo < w.base {
		lo = w.base
	}
	if last := w.base + w.n - 1; hi > last {
		hi = last
	}
	return lo, hi, lo <= hi
}

// Index returns the ring cell of a live slot; successive slots own
// successive cells, wrapping at Len. With Base still 1 the index is
// slot-1, the layout of a fixed horizon.
func (w Window) Index(slot int) int {
	i := w.start + (slot - w.base)
	if i >= w.n {
		i -= w.n
	}
	return i
}

// Advance moves the window forward so it starts at base and returns the
// ring range it retired: the n ≤ Len cells from start on, wrapping, which
// now belong to the slots entering at the far edge and must be cleared by
// every ring on this geometry. Moving backward or not at all retires
// nothing (n = 0).
func (w *Window) Advance(base int) (start, n int) {
	if base <= w.base {
		return w.start, 0
	}
	retired := base - w.base
	start, n = w.start, min(retired, w.n)
	w.start = (w.start + retired%w.n) % w.n
	w.base = base
	return start, n
}

// ClearRing zeroes the n ≤ len(ring) cells from index start on, wrapping:
// the range a Window.Advance returned.
func ClearRing[T any](ring []T, start, n int) {
	k := min(n, len(ring)-start)
	clear(ring[start : start+k])
	clear(ring[:n-k])
}
