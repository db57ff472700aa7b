// Package core impersonates the scheduler contracts the analyzer's
// summary table is keyed by.
package core

// WindowAdvancer mirrors the real interface; the summary attributes
// sched.mu to calls through it.
type WindowAdvancer interface {
	AdvanceWindow(base int)
}
