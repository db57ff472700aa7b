package timeslot

// Window maps the live slots [Base, Base+Len-1] onto a ring of Len cells:
// which slots are live, which ring cell a slot owns, which cells an
// advance retires. Every per-slot table stands on one: the ledger's units
// and the dual prices are two instances of Ring, the placement book's live
// records and pd-shared's open groups two instances of Ends (DESIGN.md §10).
// Nothing here locks: a Window is plain data guarded by its owner's mutex.
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
	start, n = w.start, min(base-w.base, w.n)
	w.rebase(base)
	return start, n
}

// rebase moves the window to start at base, in either direction, keeping
// the cell of every slot the old and new windows share.
func (w *Window) rebase(base int) {
	w.start = ((w.start+base-w.base)%w.n + w.n) % w.n
	w.base = base
}

// ClearRing zeroes the n ≤ len(ring) cells from index start on, wrapping:
// the range a Window.Advance returned.
func ClearRing[T any](ring []T, start, n int) {
	k := min(n, len(ring)-start)
	clear(ring[start : start+k])
	clear(ring[:n-k])
}

// Ring is one ring of per-slot cells per row — per cloudlet — on one
// Window: cell Index(slot) of a row holds the row's value at that live
// slot. The ledger's units are a Ring[int] and the dual prices λ a
// Ring[float64].
type Ring[T any] struct {
	Window
	rows [][]T
}

// NewRing returns rows all-zero rings over the window [1, n].
func NewRing[T any](rows, n int) Ring[T] {
	r := Ring[T]{Window: NewWindow(n), rows: make([][]T, rows)}
	for j := range r.rows {
		r.rows[j] = make([]T, n)
	}
	return r
}

// At returns row j's value at the slot, or the zero value for an unknown
// row or a slot that is not live.
func (r *Ring[T]) At(j, slot int) T {
	if j < 0 || j >= len(r.rows) || !r.Contains(slot, slot) {
		var zero T
		return zero
	}
	return r.rows[j][r.Index(slot)]
}

// Row returns row j's ring, cell Index(slot) holding its value at slot, for
// a walk that moves over it and another ring on the same Window in
// lockstep.
func (r *Ring[T]) Row(j int) []T { return r.rows[j] }

// Span returns row j's cells for the live slots [lo, hi] in slot order, as
// the ring's two contiguous runs: head from Index(lo), then tail from cell
// 0 when the range wraps (empty when it does not). The caller has checked
// Contains(lo, hi).
func (r *Ring[T]) Span(j, lo, hi int) (head, tail []T) {
	row := r.rows[j]
	i, n := r.Index(lo), max(hi-lo+1, 0)
	k := min(n, len(row)-i)
	return row[i : i+k], row[:n-k]
}

// Advance moves the window to start at base, zeroes the retired cells of
// every row and returns the retired ring range as Window.Advance does.
func (r *Ring[T]) Advance(base int) (start, n int) {
	start, n = r.Window.Advance(base)
	for _, row := range r.rows {
		ClearRing(row, start, n)
	}
	return start, n
}

// Ends files values under the ring cell of a slot — the last slot of the
// window each value holds — and pops whole cells in slot order as a limit
// passes them. Its window runs from the front, Base, to Last, the latest
// slot filed: a value filed behind the front (a straggler, whose window
// ended before the last pop) moves the front back to its slot, so it lands
// in the front cell and leaves at the next pop past it. A range longer than
// the ring grows it, and an empty index restarts its range at the next
// slot filed. Cells keep their backing arrays lap after lap, so a steady
// state allocates nothing. The zero value is an empty index.
type Ends[T any] struct {
	win   Window
	cells [][]T
	last  int // the latest slot filed; before win.base when empty
}

// empty reports whether no value is filed.
func (x *Ends[T]) empty() bool { return len(x.cells) == 0 || x.last < x.win.base }

// Base returns the front: no value is filed under an earlier slot.
func (x *Ends[T]) Base() int { return x.win.base }

// Last returns the latest slot a value may be filed under; it is before
// Base when the index is empty.
func (x *Ends[T]) Last() int { return x.last }

// File files v under slot.
func (x *Ends[T]) File(slot int, v T) {
	switch {
	case x.empty():
		x.reserve(1)
		x.win.base, x.last = slot, slot
	case slot < x.win.base:
		x.reserve(x.last - slot + 1)
		x.win.rebase(slot)
	case slot > x.last:
		x.reserve(slot - x.win.base + 1)
		x.last = slot
	}
	i := x.win.Index(slot)
	x.cells[i] = append(x.cells[i], v)
}

// reserve grows the ring to at least n cells, the cells from the front on
// in slot order, every cell's backing array kept.
func (x *Ends[T]) reserve(n int) {
	if n <= len(x.cells) {
		return
	}
	cells := make([][]T, max(n, 2*len(x.cells), 8))
	k := copy(cells, x.cells[x.win.start:])
	copy(cells[k:], x.cells[:x.win.start])
	x.cells, x.win.start, x.win.n = cells, 0, len(cells)
}

// Cell returns the values filed under slot, in the order filed.
func (x *Ends[T]) Cell(slot int) []T {
	if x.empty() || slot < x.win.base || slot > x.last {
		return nil
	}
	return x.cells[x.win.Index(slot)]
}

// Pop empties the cells of the slots before limit, in slot order, calling
// fn on each cell's values in the order filed, and moves the front to
// limit. fn may file values under limit or a later slot, never an earlier
// one.
func (x *Ends[T]) Pop(limit int, fn func(T)) {
	if x.empty() {
		return
	}
	for t := x.win.base; t < limit && t <= x.last; t++ {
		for _, v := range x.cells[x.win.Index(t)] {
			fn(v)
		}
		i := x.win.Index(t) // fn may have grown the ring
		x.cells[i] = x.cells[i][:0]
	}
	x.win.Advance(limit)
}
