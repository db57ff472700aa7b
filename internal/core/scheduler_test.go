package core

import "testing"

// countingTwoPhase is a fake scheduler recording the calls it receives.
// admitEvery controls Propose's verdict: request IDs divisible by it are
// admitted, the rest rejected. Abort and ConcurrentPropose come from
// Stateless; Commit is its own, like a primal-dual scheduler's.
type countingTwoPhase struct {
	Stateless[Request, Placement]
	proposes, commits int
	admitEvery        int
}

func (c *countingTwoPhase) Name() string   { return "counting" }
func (c *countingTwoPhase) Scheme() Scheme { return OnSite }

func (c *countingTwoPhase) Propose(req Request, _ CapacityView) (Placement, bool) {
	c.proposes++
	if c.admitEvery == 0 || req.ID%c.admitEvery != 0 {
		return Placement{}, false
	}
	return Placement{Request: req.ID, Scheme: OnSite,
		Assignments: []Assignment{{Cloudlet: 0, Instances: 1}}}, true
}

func (c *countingTwoPhase) Commit(Request, Placement) { c.commits++ }

// TestDecidePairsProposeCommit pins core.Decide: every call proposes once,
// an admitted proposal is committed exactly once and returned unchanged, a
// rejected one is not committed and yields the zero placement.
func TestDecidePairsProposeCommit(t *testing.T) {
	fake := &countingTwoPhase{admitEvery: 2}
	var s Scheduler = fake
	if !s.ConcurrentPropose() {
		t.Fatal("Stateless.ConcurrentPropose() = false, want true")
	}
	p, ok := Decide(s, Request{ID: 2}, nil)
	if !ok || p.Request != 2 || len(p.Assignments) != 1 {
		t.Fatalf("Decide(ID=2) = %+v, %v; fake admits even IDs", p, ok)
	}
	p, ok = Decide(s, Request{ID: 3}, nil)
	if ok || p.Request != 0 || p.Assignments != nil {
		t.Fatalf("Decide(ID=3) = %+v, %v; fake rejects odd IDs", p, ok)
	}
	s.Abort(Request{ID: 3}, p)
	if fake.proposes != 2 || fake.commits != 1 {
		t.Errorf("after Decide×2: proposes=%d commits=%d, want 2/1", fake.proposes, fake.commits)
	}
}
