// Package dual is a stub of revnf/internal/dual: the price table with the
// writer set the analyzer bans from Propose, and its read side.
package dual

type Window struct{ base, n int }

func (w Window) Contains(lo, hi int) bool { return lo >= w.base && hi < w.base+w.n }

func (w Window) Index(slot int) int { return slot - w.base }

func (w *Window) Advance(base int) (start, n int) { return 0, 0 }

type Table struct {
	Window
	rows [][]float64
}

func (t *Table) At(j, slot int) float64 { return 0 }

func (t *Table) Sum(j, lo, hi int, weight float64) float64 { return 0 }

func (t *Table) Row(j int) []float64 { return t.rows[j] }

func (t *Table) Update(j, lo, hi int, growth, additive float64) {}

func (t *Table) Advance(base int) (start, n int) { return 0, 0 }

func ClearRing[T any](ring []T, start, n int) {}
