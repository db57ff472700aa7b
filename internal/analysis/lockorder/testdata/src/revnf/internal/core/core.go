// Package core impersonates the scheduler contracts the analyzer's
// summary table is keyed by.
package core

// WindowAdvancer mirrors the real interface; the summary attributes
// sched.mu to calls through it.
type WindowAdvancer interface {
	AdvanceWindow(base int)
}

// TwoPhase mirrors the real generic scheduler contract. A call through any
// instantiation of it resolves to the origin's name, which is the key the
// summary attributes sched.mu, the ledger's lock and the trace store's to.
type TwoPhase[R, P any] interface {
	Propose(req R) (P, bool)
	Commit(req R, p P)
}
