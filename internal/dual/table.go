// Package dual is the dual-price kernel shared by every primal-dual
// scheduler: the table of prices λ_{tj}, one per (slot, cloudlet) pair,
// that Algorithms 1 and 2 of the paper and the shared-backup scheme all
// keep, test admissions against (Σ_t λ_{tj}) and update in the one shape
// λ := λ·growth + additive. Eq. (34) and Eq. (67) differ only in how a
// scheduler computes the (growth, additive) pair, so the pair is the
// interface and the formulas stay with the schedulers.
//
// Per-slot state is a ring over the live window (DESIGN.md §10): Table is
// a λ ring per cloudlet on a timeslot.Window, the geometry the slot ledger
// stands on too. State that must age in lockstep with the prices
// (pd-shared's group refcounts) indexes through the same Window and clears
// the range Advance returns with timeslot.ClearRing.
//
// Nothing here locks: a Table is plain data guarded by its owner's mutex.
package dual

import "revnf/internal/timeslot"

// Table is the dual prices of a set of cloudlets over one window. Prices
// start at zero, and a slot entering the window starts at zero again
// rather than inheriting the retired slot's accumulated price; prices of
// slots that stay live are never touched by Advance, which is what keeps
// rolling-window decisions bit-identical to fixed-horizon ones.
type Table struct {
	timeslot.Window
	rows [][]float64 // rows[j] is cloudlet j's ring
}

// NewTable returns an all-zero table for the window [1, horizon].
func NewTable(cloudlets, horizon int) Table {
	rows := make([][]float64, cloudlets)
	for j := range rows {
		rows[j] = make([]float64, horizon)
	}
	return Table{Window: timeslot.NewWindow(horizon), rows: rows}
}

// At returns λ_{slot,j}, or 0 for an unknown cloudlet or a slot that is not
// live.
func (t *Table) At(j, slot int) float64 {
	if j < 0 || j >= len(t.rows) || !t.Contains(slot, slot) {
		return 0
	}
	return t.rows[j][t.Index(slot)]
}

// Row returns cloudlet j's ring, cell Index(slot) holding λ_{slot,j}, for
// a walk that moves over the prices and another ring in lockstep.
func (t *Table) Row(j int) []float64 { return t.rows[j] }

// span returns row j's cells for the live slots [lo, hi] in slot order, as
// the ring's two contiguous runs.
func (t *Table) span(j, lo, hi int) (head, tail []float64) {
	row := t.rows[j]
	i, n := t.Index(lo), max(hi-lo+1, 0)
	k := min(n, len(row)-i)
	return row[i : i+k], row[:n-k]
}

// Sum returns Σ_{t=lo..hi} weight·λ_{tj}, accumulated in ascending slot
// order with the weight applied to each term — the order and rounding of
// Algorithm 1's dual cost; weight 1 gives the plain sum exactly. The
// caller has checked Contains(lo, hi).
//
// Each product is rounded by an explicit conversion before it is added,
// here and in Update: the compiler may otherwise fuse x*y + z into one
// multiply-add that rounds once (it does on arm64, ppc64le, s390x, riscv64
// and under GOAMD64=v3), and prices, and through cost ties decisions, would
// depend on the architecture.
func (t *Table) Sum(j, lo, hi int, weight float64) float64 {
	head, tail := t.span(j, lo, hi)
	sum := 0.0
	for _, v := range head {
		sum += float64(weight * v)
	}
	for _, v := range tail {
		sum += float64(weight * v)
	}
	return sum
}

// Update applies λ_{tj} := λ_{tj}·growth + additive to the slots of
// [lo, hi] that are live; slots outside the window have no cell and are
// skipped (a fixed-horizon proposal already proved its slots live, a
// commit racing a window advance past its arrival has not).
func (t *Table) Update(j, lo, hi int, growth, additive float64) {
	lo, hi, ok := t.Clamp(lo, hi)
	if !ok {
		return
	}
	head, tail := t.span(j, lo, hi)
	for i := range head {
		head[i] = float64(head[i]*growth) + additive // rounded twice: see Sum
	}
	for i := range tail {
		tail[i] = float64(tail[i]*growth) + additive
	}
}

// Advance moves the window to start at base, zeroes the retired prices and
// returns the retired ring range as timeslot.Window.Advance does.
func (t *Table) Advance(base int) (start, n int) {
	start, n = t.Window.Advance(base)
	if n > 0 {
		for _, row := range t.rows {
			timeslot.ClearRing(row, start, n)
		}
	}
	return start, n
}
