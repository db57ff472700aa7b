// Package dual is the dual-price kernel shared by every primal-dual
// scheduler: the table of prices λ_{tj}, one per (slot, cloudlet) pair,
// that Algorithms 1 and 2 of the paper and the shared-backup scheme all
// keep, test admissions against (Σ_t λ_{tj}) and update in the one shape
// λ := λ·growth + additive. Eq. (34) and Eq. (67) differ only in how a
// scheduler computes the (growth, additive) pair, so the pair is the
// interface and the formulas stay with the schedulers.
//
// Per-slot state is a ring over the live window (DESIGN.md §10): Table is
// the λ instance of timeslot.Ring, the type the slot ledger's units are the
// other instance of, so the geometry (Base, Index, Contains, Clamp), the
// reads (At, Row, Span) and the aging Advance are the ring's. State that
// must age in lockstep with the prices (pd-shared's group refcounts)
// indexes through the same Window and clears the range Advance returns with
// timeslot.ClearRing.
//
// Nothing here locks: a Table is plain data guarded by its owner's mutex.
package dual

import "revnf/internal/timeslot"

// Table is the dual prices of a set of cloudlets over one window, a row per
// cloudlet. Prices start at zero, and a slot entering the window starts at
// zero again rather than inheriting the retired slot's accumulated price
// (Advance zeroes the retired cells); prices of slots that stay live are
// never touched by Advance, which is what keeps rolling-window decisions
// bit-identical to fixed-horizon ones.
type Table struct {
	timeslot.Ring[float64]
}

// NewTable returns an all-zero table for the window [1, horizon].
func NewTable(cloudlets, horizon int) Table {
	return Table{timeslot.NewRing[float64](cloudlets, horizon)}
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
	head, tail := t.Span(j, lo, hi)
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
	head, tail := t.Span(j, lo, hi)
	for i := range head {
		head[i] = float64(head[i]*growth) + additive // rounded twice: see Sum
	}
	for i := range tail {
		tail[i] = float64(tail[i]*growth) + additive
	}
}
