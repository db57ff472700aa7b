// Package repair tracks the redundancy health of admitted placements
// under injected failures and decides when the serve engine should
// re-place one. It is a pure state machine: the engine feeds it one
// health observation per placement per slot (does the surviving
// footprint still meet the reliability target?) and executes the repairs
// it requests through the normal propose/reserve/commit pipeline — the
// controller itself never touches the ledger or the scheduler.
//
// Per placement the controller runs episodes. An episode opens when a
// healthy placement stops meeting its target, stays open while repairs
// are attempted, and closes when a repair succeeds or the footprint
// recovers on its own (a cloudlet came back). Repair attempts are
// bounded per episode: when the budget is exhausted the placement goes
// Degraded — a sticky terminal state the engine reports but no longer
// repairs, representing repair capacity exhausted.
package repair

import (
	"sync"

	"revnf/internal/core"
)

// State is a placement's repair state.
type State string

const (
	// StateHealthy: the surviving footprint meets the reliability target.
	StateHealthy State = "healthy"
	// StateFailed: an episode is open — the footprint is below target and
	// repair is being attempted.
	StateFailed State = "failed"
	// StateDegraded: the episode's repair budget is exhausted; terminal.
	StateDegraded State = "degraded"
)

// Action is what the controller asks the engine to do for a placement.
type Action int

const (
	// ActionNone: nothing to do this slot.
	ActionNone Action = iota
	// ActionRepair: re-place the request through the admission pipeline.
	ActionRepair
)

// DefaultMaxAttempts bounds repair attempts per episode when the
// configured budget is not positive.
const DefaultMaxAttempts = 3

// Stats is a snapshot of the controller's counters.
type Stats struct {
	// Tracked is the number of placements currently tracked.
	Tracked int
	// Episodes counts failure episodes opened.
	Episodes uint64
	// Repairs counts episodes closed by a successful repair.
	Repairs uint64
	// FailedAttempts counts repair attempts that could not be placed.
	FailedAttempts uint64
	// Degraded counts placements that exhausted their repair budget.
	Degraded uint64
}

// Controller is the per-placement repair state machine. It keeps its own
// mutex: the engine drives it under the engine lock, but stats are read
// from the metrics and HTTP paths concurrently.
type Controller struct {
	mu          sync.Mutex
	maxAttempts int              // immutable after New
	placements  map[int]*tracked // guarded by mu
	stats       Stats            // guarded by mu
}

// tracked is one placement's episode state.
type tracked struct {
	state    State
	failedAt int // slot the open episode started
	attempts int // repair attempts spent in the open episode
}

// New builds a controller allowing maxAttempts repair attempts per
// episode (DefaultMaxAttempts when not positive).
func New(maxAttempts int) *Controller {
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	return &Controller{maxAttempts: maxAttempts, placements: make(map[int]*tracked)}
}

// MaxAttempts returns the per-episode repair budget.
func (c *Controller) MaxAttempts() int { return c.maxAttempts }

// Observe feeds one slot's health verdict for a placement and returns
// the action to take. opened is true exactly when this observation
// opened a new failure episode — the engine uses it to emit one failure
// trace event per episode rather than one per slot. A placement that
// recovers on its own (meets again with an episode open and no repair
// recorded) closes the episode without counting a repair. Degraded
// placements always return ActionNone.
func (c *Controller) Observe(id, slot int, meets bool) (Action, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.placements[id]
	if !ok {
		p = &tracked{state: StateHealthy}
		c.placements[id] = p
	}
	switch p.state {
	case StateDegraded:
		return ActionNone, false
	case StateHealthy:
		if meets {
			return ActionNone, false
		}
		p.state = StateFailed
		p.failedAt = slot
		p.attempts = 0
		c.stats.Episodes++
		return ActionRepair, true
	default: // StateFailed
		if meets {
			// Self-recovery: a cloudlet or instance came back before a
			// repair landed.
			p.state = StateHealthy
			return ActionNone, false
		}
		return ActionRepair, false
	}
}

// RepairSucceeded closes the open episode after the engine re-placed the
// request, returning the repair latency in slots (how long the episode
// was open). Zero when the repair landed in the slot that opened it.
func (c *Controller) RepairSucceeded(id, slot int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.placements[id]
	if !ok || p.state != StateFailed {
		return 0
	}
	p.state = StateHealthy
	c.stats.Repairs++
	return slot - p.failedAt
}

// RepairFailed records a repair attempt that could not be placed and
// returns the resulting state: StateFailed while budget remains,
// StateDegraded once the episode's attempts are exhausted.
func (c *Controller) RepairFailed(id, slot int) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.placements[id]
	if !ok || p.state != StateFailed {
		return StateHealthy
	}
	p.attempts++
	c.stats.FailedAttempts++
	if p.attempts >= c.maxAttempts {
		p.state = StateDegraded
		c.stats.Degraded++
	}
	return p.state
}

// State returns a placement's current state (StateHealthy when never
// observed).
func (c *Controller) State(id int) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.placements[id]; ok {
		return p.state
	}
	return StateHealthy
}

// Forget drops a placement whose window expired.
func (c *Controller) Forget(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.placements, id)
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Tracked = len(c.placements)
	return s
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
