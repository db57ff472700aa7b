// Package repair tracks the redundancy health of admitted placements
// under injected failures and decides when the serve engine should
// re-place one. It is a pure state machine: the engine feeds it one
// health observation per placement per slot (does the surviving
// footprint still meet the reliability target?) and executes the repairs
// it calls for through the normal propose/reserve/commit pipeline — this
// package never touches the ledger or the scheduler.
//
// Per placement the engine runs episodes, one Episode value on the live
// record. An episode opens when a healthy placement stops meeting its
// target, stays open while repairs are attempted, and closes when a repair
// succeeds or the footprint recovers on its own (a cloudlet came back).
// Repair attempts are bounded per episode: when the budget is exhausted
// the engine marks the placement degraded — a sticky terminal state it
// reports but no longer repairs, representing repair capacity exhausted.
package repair

import "revnf/internal/core"

// DefaultMaxAttempts bounds repair attempts per episode when the
// configured budget is not positive.
const DefaultMaxAttempts = 3

// Stats counts repair outcomes across placements.
type Stats struct {
	// Episodes counts failure episodes opened.
	Episodes uint64
	// Repairs counts episodes closed by a successful repair.
	Repairs uint64
	// FailedAttempts counts repair attempts that could not be placed.
	FailedAttempts uint64
	// Degraded counts placements that exhausted their repair budget.
	Degraded uint64
}

// Episode is one placement's repair state: healthy, or failed since
// failedAt with attempts spent on repairs. The zero value is healthy. It
// has no lock; its holder serializes the calls.
type Episode struct {
	failed   bool
	failedAt int // slot the open episode started
	attempts int // repair attempts spent in the open episode
}

// Observe feeds one slot's health verdict. A placement that stops meeting
// its target opens an episode — opened is true exactly then, so the engine
// emits one failure trace event per episode rather than one per slot — and
// one that meets again with the episode open closes it without a repair
// (a cloudlet or instance came back before a repair landed). The engine
// repairs every slot the verdict is false.
func (p *Episode) Observe(slot int, meets bool) (opened bool) {
	switch {
	case meets:
		p.failed = false
		return false
	case p.failed:
		return false
	}
	*p = Episode{failed: true, failedAt: slot}
	return true
}

// Succeeded closes the open episode after the engine re-placed the
// request, returning the repair latency in slots (how long the episode
// was open): zero when the repair landed in the slot that opened it, and
// when no episode is open.
func (p *Episode) Succeeded(slot int) int {
	if !p.failed {
		return 0
	}
	p.failed = false
	return slot - p.failedAt
}

// Failed records a repair attempt that could not be placed and reports
// whether it exhausted the episode's budget of maxAttempts. Without an
// open episode it records nothing.
func (p *Episode) Failed(maxAttempts int) (exhausted bool) {
	if !p.failed {
		return false
	}
	p.attempts++
	return p.attempts >= maxAttempts
}

// Meets evaluates a surviving footprint against a request's reliability
// target: the admission predicate asked of the instances still alive, at
// the rates of n — the catalog the placement was provisioned under, or
// n.WithReliabilities(src) for learned ones. Nothing alive never meets.
func Meets(n *core.Network, req core.Request, alive []core.Assignment) (float64, bool) {
	avail := core.Availability(n, req.VNF, alive)
	return avail, avail > 0 && core.MeetsRequirement(avail, req.Reliability)
}

// MeetsPlacement is the scheme-aware form of Meets: dedicated placements
// delegate to it, shared ones are scored with the occupancy model they were
// admitted under. The alive set of a shared placement may hold the primary
// and/or the pooled backup instance (the engine watches both); a dead side
// enters core.SharedReliabilityK with rate 0, which leaves the admitted
// availability when both live, the bare active path rf·r(c_a) for the
// primary alone, the pooled backup path for the backup alone, and 0 —
// never meeting — for neither.
func MeetsPlacement(n *core.Network, req core.Request, p core.Placement, alive []core.Assignment) (float64, bool) {
	if p.Scheme != core.Shared || p.Backup == nil || len(p.Assignments) != 1 {
		return Meets(n, req, alive)
	}
	var rcA, rcB float64
	for _, a := range alive {
		if a.Instances <= 0 {
			continue
		}
		if a.Cloudlet == p.Assignments[0].Cloudlet {
			rcA = n.Cloudlets[a.Cloudlet].Reliability
		}
		if a.Cloudlet == p.Backup.Cloudlet {
			rcB = n.Cloudlets[a.Cloudlet].Reliability
		}
	}
	rf := n.Catalog[req.VNF].Reliability
	avail := core.SharedReliabilityK(rf, rcA, rcB, core.SharedContentionFloor(rf, n.Cloudlets), p.Backup.PoolSize)
	return avail, avail > 0 && core.MeetsRequirement(avail, req.Reliability)
}
