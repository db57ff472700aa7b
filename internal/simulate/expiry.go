package simulate

import (
	"fmt"
	"sort"

	"revnf/internal/core"
)

// RequestFor resolves a placement's request in the trace, checking the ID
// is known. It is the shared lookup used by the failure injector, the
// timeline simulator and the serving layer's expiry bookkeeping.
func RequestFor(trace []core.Request, p core.Placement) (core.Request, error) {
	if p.Request < 0 || p.Request >= len(trace) {
		return core.Request{}, fmt.Errorf("%w: placement for unknown request %d", ErrBadInstance, p.Request)
	}
	return trace[p.Request], nil
}

// slotDeque holds one cell per slot of a contiguous slot range
// [lo, lo+n-1] in a ring buffer, so that state keyed by slot costs an
// index rather than a hash and its storage is reused lap after lap. Cells
// outside the range are in their empty state (the zero value, or what
// popFront's caller reset them to), so the range grows over them as-is.
type slotDeque[T any] struct {
	cells []T // ring; the cell of slot lo sits at index head
	head  int
	n     int // slots in range
	lo    int // first slot in range; meaningless while n == 0
}

// at returns the cell of slot, growing the range (at either end) to
// include it.
func (d *slotDeque[T]) at(slot int) *T {
	switch {
	case d.n == 0:
		d.reserve(1)
		d.lo, d.n = slot, 1
	case slot < d.lo:
		grow := d.lo - slot
		d.reserve(d.n + grow)
		if d.head -= grow; d.head < 0 {
			d.head += len(d.cells)
		}
		d.lo, d.n = slot, d.n+grow
	case slot >= d.lo+d.n:
		d.reserve(slot - d.lo + 1)
		d.n = slot - d.lo + 1
	}
	i := d.head + slot - d.lo
	if i >= len(d.cells) {
		i -= len(d.cells)
	}
	return &d.cells[i]
}

// reserve makes room for n cells, keeping every cell (the empty ones too:
// their backing arrays are what the ring recycles).
func (d *slotDeque[T]) reserve(n int) {
	if n <= len(d.cells) {
		return
	}
	cells := make([]T, max(n, 2*len(d.cells), 8))
	k := copy(cells, d.cells[d.head:])
	copy(cells[k:], d.cells[:d.head])
	d.cells, d.head = cells, 0
}

// front returns the cell of slot lo; the range must not be empty.
func (d *slotDeque[T]) front() *T { return &d.cells[d.head] }

// popFront drops slot lo from the range. The caller has already returned
// its cell to the empty state.
func (d *slotDeque[T]) popFront() {
	if d.head++; d.head == len(d.cells) {
		d.head = 0
	}
	d.lo++
	d.n--
}

// liveWindow is one registered window inside its end slot's bucket.
type liveWindow struct{ id, start int }

// WindowIndex tracks execution windows by their last covered slot so that
// expirations can be drained as a slot clock advances: a placement for
// request ρ = (f, R, a, d, pay) covers slots [a, a+d-1] and expires the
// moment the clock reaches slot a+d. The timeline simulator uses the same
// end-of-window convention when it scores delivered uptime; the serving
// engine (internal/serve) uses this index to release ledger capacity on
// every tick.
//
// Like all per-slot state on the admission path (DESIGN.md §10) the index
// is a ring over the slots in use: a bucket of windows per end slot and a
// count of windows per start slot, each in a deque whose front follows the
// clock. Add and OldestStart are O(1), ExpireBefore is linear in what it
// returns; there is no per-id table, so Remove, End and Start — repairs
// and tests only — scan the live windows. Memory follows the span of
// slots between the oldest and the newest live window, which callers keep
// bounded (the engine: by its horizon). Not safe for concurrent use.
type WindowIndex struct {
	ends   slotDeque[[]liveWindow] // windows bucketed by end slot
	starts slotDeque[int]          // live windows per start slot; the front count is never 0
	live   int
	out    []int // ExpireBefore's result, reused call after call
}

// NewWindowIndex returns an empty index.
func NewWindowIndex() *WindowIndex { return &WindowIndex{} }

// Add registers id holding resources over [start, end] (both covered
// slots). The end drives expiry draining; the start is what a rolling
// ledger's window base must not pass while the window is live (see
// OldestStart). The id must not be live: Add does not look for it, so a
// caller that moves a live window (a repair that re-based the footprint)
// calls Remove first. Add panics on an inverted window, which can only be
// a caller bug.
func (x *WindowIndex) Add(id, start, end int) {
	if start > end {
		panic(fmt.Sprintf("simulate: WindowIndex.Add id %d inverted window [%d,%d]", id, start, end))
	}
	if x.live == 0 {
		// Every bucket is empty: restart the range at this window rather
		// than stretch it from wherever the last one drained.
		x.ends.n = 0
	}
	b := x.ends.at(end)
	*b = append(*b, liveWindow{id, start})
	*x.starts.at(start)++
	x.live++
}

// find scans the live windows for id and returns its bucket, its position
// there and its end slot; the bucket is nil for an unknown id.
func (x *WindowIndex) find(id int) (b *[]liveWindow, i, end int) {
	for end = x.ends.lo; end < x.ends.lo+x.ends.n; end++ {
		b = x.ends.at(end)
		for i, w := range *b {
			if w.id == id {
				return b, i, end
			}
		}
	}
	return nil, 0, 0
}

// dropStart forgets one window starting at slot and moves the front of
// the start counts up to the oldest slot that still has one.
func (x *WindowIndex) dropStart(slot int) {
	*x.starts.at(slot)--
	x.live--
	for x.starts.n > 0 && *x.starts.front() == 0 {
		x.starts.popFront()
	}
}

// Remove unregisters id; unknown ids are ignored.
func (x *WindowIndex) Remove(id int) {
	b, i, _ := x.find(id)
	if b == nil {
		return
	}
	start := (*b)[i].start
	last := len(*b) - 1
	(*b)[i] = (*b)[last]
	*b = (*b)[:last]
	x.dropStart(start)
}

// Len returns the number of live windows.
func (x *WindowIndex) Len() int { return x.live }

// End returns the registered last covered slot of id and whether it is
// live.
func (x *WindowIndex) End(id int) (int, bool) {
	b, _, end := x.find(id)
	return end, b != nil
}

// Start returns the registered first covered slot of id and whether it is
// live.
func (x *WindowIndex) Start(id int) (int, bool) {
	b, i, _ := x.find(id)
	if b == nil {
		return 0, false
	}
	return (*b)[i].start, true
}

// OldestStart returns the smallest first-covered slot across all live
// windows, and false when the index is empty. A rolling engine advances
// its ledger base to min(clock, OldestStart): live reservations pin the
// window open so their eventual release still addresses live slots.
func (x *WindowIndex) OldestStart() (int, bool) {
	if x.live == 0 {
		return 0, false
	}
	return x.starts.lo, true
}

// ExpireBefore removes and returns, in ascending id order, every id whose
// window ended before slot now — that is, every window with end < now. A
// window ending at slot e therefore expires exactly when the clock
// advances to slot e+1 (= arrival + duration). The returned slice is the
// index's own scratch: it is valid until the next ExpireBefore.
func (x *WindowIndex) ExpireBefore(now int) []int {
	x.out = x.out[:0]
	for x.ends.n > 0 && x.ends.lo < now {
		b := x.ends.front()
		for _, w := range *b {
			x.out = append(x.out, w.id)
			x.dropStart(w.start)
		}
		*b = (*b)[:0]
		x.ends.popFront()
	}
	sort.Ints(x.out)
	return x.out
}
