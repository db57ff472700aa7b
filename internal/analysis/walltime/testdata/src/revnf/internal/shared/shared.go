// Package shared impersonates revnf/internal/shared: a backup group ages
// with the slot window, never with the wall clock.
package shared

import "time"

type group struct {
	end     int
	touched time.Time
}

func (g *group) staleByClock() bool {
	return time.Since(g.touched) > time.Minute // want `wall-clock read time\.Since`
}

// stale is the blessed pattern: retirement against the window base.
func (g *group) stale(base int) bool { return g.end < base }
