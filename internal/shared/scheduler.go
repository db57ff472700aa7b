// Package shared implements the shared-backup scheme: a primal-dual
// admission algorithm in which each admitted request places one primary
// instance in a cloudlet and joins a backup group — a single pooled backup
// instance on a second cloudlet shared by up to k concurrently active
// members.
//
// The scheme goes beyond the paper's two dedicated schemes (on-site and
// off-site) following the backup-sharing literature cited in PAPERS.md: a
// pooled backup is only as available as the probability it is free when
// *this* member's active path fails, which the occupancy model of
// core.SharedReliabilityK accounts for with a Binomial contender count.
// Admission always prices and validates at full pool capacity k, so a
// member admitted into a half-empty group can never be invalidated by
// later joiners, and a singleton group is exactly a dedicated
// two-cloudlet off-site placement.
//
// Pricing follows the primal-dual template of Algorithms 1–2: dual prices
// λ_{tj} per (slot, cloudlet), a candidate (primary a, backup b) pair
// costs the full primary demand on a plus the backup demand on b
// amortized by 1/k — the pool's marginal footprint per expected member —
// and the argmin pair is admitted when its cost is below the payment.
// Commit applies the Eq. (34)-style update with the same unit counts
// (full on the primary, 1/k on the backup), so a pooled backup inflates
// its cloudlet's prices k times slower than a dedicated instance would:
// the dual-price amortization argument of DESIGN.md §13.
package shared

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"revnf/internal/core"
	"revnf/internal/dual"
	"revnf/internal/timeslot"
	"revnf/internal/trace"
)

// Errors returned by the constructor.
var (
	ErrBadNetwork  = errors.New("shared: invalid network")
	ErrBadHorizon  = errors.New("shared: invalid horizon")
	ErrBadPoolSize = errors.New("shared: invalid pool size")
)

// group tracks one backup group's membership for join decisions: the
// per-slot count of concurrently active members (a member counts toward
// every slot of its window) and the furthest slot any member covers.
type group struct {
	id  int
	key int // the group's index in Scheduler.open
	// ref counts the members active at each slot: a ring on the dual
	// prices' Window, so a group holds one cell per live slot however long
	// it keeps being joined. Protected by Scheduler.mu.
	ref []uint16
	end int // max covered slot; stale groups (end < arrival) are retired
}

// stackCloudlets is the network size up to which Propose keeps its
// per-cloudlet scratch on the stack.
const stackCloudlets = 32

// Scheduler is the shared-scheme primal-dual scheduler. It implements
// core.Scheduler: Propose reads dual prices and group state under
// the read lock without mutating anything (its scratch lives on its own
// stack); Commit applies the dual updates and the group join under the
// write lock. ConcurrentPropose reports false — a proposal carries a
// tentative group ID whose uniqueness needs the Propose→Commit pairs
// serialized — so engines decide with one worker token. All state
// keyed by slot is a ring (DESIGN.md §10): λ and the groups' refcounts
// share one timeslot.Window, and AdvanceWindow is the one place a retired
// cell of theirs is cleared; the groups retire through an end-slot index.
type Scheduler struct {
	network  *core.Network
	poolSize int
	// pairs is the reliability filter of the pair scan, tabulated at the
	// scheduler's pool size.
	pairs core.SharedPairs
	// mu guards everything below it: Propose reads, Commit and
	// AdvanceWindow write.
	mu sync.RWMutex
	// prices holds λ_{tj}; its Window is also the groups' ring geometry.
	prices dual.Table // guarded by mu
	// open[backup·|F|+vnf] lists the joinable groups of one key in
	// ascending ID order (the join scan is deterministic). Backup groups
	// are homogeneous in (backup cloudlet, VNF type) — same pooled instance
	// footprint and failure model — while members' primaries may sit on any
	// cloudlet, because availability is validated with peers contending at
	// the network-wide floor (core.SharedContentionFloor). Opening
	// membership to every primary is what makes pools actually fill: keying
	// on the primary too would fragment the m·|F| keys into m²·|F|.
	open      [][]*group // guarded by mu
	nextGroup int        // guarded by mu
	// ends files every open group under the slot its coverage ended at
	// when it was filed: end itself, or an earlier slot once joins have
	// extended it (retireLocked re-files those when it gets there).
	// Retirement so visits the groups that may retire, not every key.
	ends timeslot.Ends[*group] // guarded by mu
	// free holds retired groups, rings zeroed, for the next new group.
	free []*group // guarded by mu
	name string
	rec  trace.Recorder
}

// Option configures the scheduler.
type Option func(*Scheduler)

// WithRecorder injects the decision-trace sink Propose emits into. A nil
// recorder keeps the no-op default. Tracing never changes decisions.
func WithRecorder(r trace.Recorder) Option {
	return func(s *Scheduler) {
		if r != nil {
			s.rec = r
		}
	}
}

// WithPoolSize sets the pool capacity k (default
// core.DefaultSharedPoolSize): up to k members share one backup instance,
// and every admission is validated at full k.
func WithPoolSize(k int) Option {
	return func(s *Scheduler) { s.poolSize = k }
}

// NewScheduler creates a shared-scheme scheduler.
func NewScheduler(network *core.Network, horizon int, opts ...Option) (*Scheduler, error) {
	if network == nil {
		return nil, fmt.Errorf("%w: nil", ErrBadNetwork)
	}
	if err := network.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadNetwork, err)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadHorizon, horizon)
	}
	s := &Scheduler{
		network:   network,
		poolSize:  core.DefaultSharedPoolSize,
		prices:    dual.NewTable(len(network.Cloudlets), horizon),
		open:      make([][]*group, len(network.Cloudlets)*len(network.Catalog)),
		nextGroup: 1,
		name:      "pd-shared",
		rec:       trace.Nop,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.poolSize < 1 || s.poolSize > math.MaxUint16 {
		// The upper bound is the width of a group's refcount cell.
		return nil, fmt.Errorf("%w: %d", ErrBadPoolSize, s.poolSize)
	}
	s.pairs = core.NewSharedPairs(network, s.poolSize)
	return s, nil
}

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Scheme implements core.Scheduler.
func (s *Scheduler) Scheme() core.Scheme { return core.Shared }

// Lambda implements core.LambdaReader: the current dual price λ_{tj}, or
// 0 for a slot outside the live window.
func (s *Scheduler) Lambda(cloudlet, slot int) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prices.At(cloudlet, slot)
}

// AdvanceWindow implements core.WindowAdvancer exactly as the off-site
// scheduler does for λ, and additionally retires backup groups whose
// coverage ended before the new base — they can never be joined by a
// request arriving inside the window — and zeroes the surviving groups'
// refcounts on the retiring slots, whose cells the slots entering the
// window inherit. That bounds group state in continuous operation.
func (s *Scheduler) AdvanceWindow(base int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retireLocked(base)
	start, n := s.prices.Advance(base)
	if n == 0 {
		return
	}
	for _, groups := range s.open {
		for _, g := range groups {
			timeslot.ClearRing(g.ref, start, n)
		}
	}
}

// retireLocked drops the groups whose last covered slot is before limit
// from the join index, recycling them: it pops the end-slot cells before
// limit, re-filing the groups a join has extended to limit or later, so it
// costs what retires. Caller holds the write lock.
func (s *Scheduler) retireLocked(limit int) {
	s.ends.Pop(limit, func(g *group) {
		if g.end >= limit {
			s.ends.File(g.end, g)
			return
		}
		// Deleting in place keeps the key's ascending ID order.
		open := s.open[g.key]
		at := slices.Index(open, g)
		s.open[g.key] = slices.Delete(open, at, at+1)
		clear(g.ref)
		s.free = append(s.free, g)
	})
}

// backupSide is the half of a pair that depends only on the backup
// cloudlet, resolved at most once per Propose and shared by every primary.
type backupSide struct {
	// term is the backup's share of the pair cost: c(f) times the dual
	// prices of the slots the member would newly cover, amortized by 1/k.
	// +Inf when the cloudlet cannot host the backup, a price no pair wins at.
	term float64
	// gid is the group the member would join, newGroup when it would open
	// one (or cannot be hosted), 0 until resolved.
	gid int
}

// newGroup stands for the tentative ID of a group yet to be opened, which
// is nextGroup whatever the backup cloudlet.
const newGroup = -1

// Decide implements core.TwoPhaseScheduler.
func (s *Scheduler) Decide(req core.Request, view core.CapacityView) (core.Placement, bool) {
	return core.Decide(s, req, view)
}

// Propose implements core.Scheduler: it scans every (primary,
// backup) cloudlet pair that meets the requirement at full pool capacity,
// prices each at full primary demand plus the backup's MARGINAL footprint
// — dual prices only on the slots a joinable group does not already
// cover, amortized by 1/k — and admits the cheapest pair whose cost is
// under the payment. Marginal pricing is what makes the scheme pool in
// practice: a pair with an overlapping group is almost free on the backup
// side, so the argmin gravitates to existing groups instead of scattering
// over untouched cloudlet pairs. Scheduler state is read under the read
// lock and never mutated.
func (s *Scheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	tracing := s.rec.Sample(req.ID)
	demand := s.network.Catalog[req.VNF].Demand
	var cands []trace.Candidate
	if tracing {
		cands = make([]trace.Candidate, len(s.network.Cloudlets))
	}
	s.mu.RLock()
	if !s.prices.Contains(req.Arrival, req.End()) {
		s.mu.RUnlock()
		if tracing {
			trace.RecordHorizon(s.rec, req, s.name, core.Shared)
		}
		return core.Placement{}, false
	}
	// Per-cloudlet dual-price sums over the window, computed once and
	// reused for every pair. This and sides below are scratch a pure
	// Propose cannot keep on the receiver.
	var sumsBuf [stackCloudlets]float64
	var sidesBuf [stackCloudlets]backupSide
	sums, sides := sumsBuf[:], sidesBuf[:]
	if m := len(s.network.Cloudlets); m <= stackCloudlets {
		sums, sides = sums[:m], sides[:m]
	} else {
		sums, sides = make([]float64, m), make([]backupSide, m)
	}
	for j := range sums {
		sums[j] = s.prices.Sum(j, req.Arrival, req.End(), 1)
	}
	bestCost, primary, backup, gid := math.Inf(1), -1, -1, newGroup
	for a := range sums {
		row := s.pairs.Row(req.VNF, a, req.Reliability)
		residual := view.ResidualWindow(a, req.Arrival, req.Duration)
		// Full primary units on a. The conversion rounds the product before
		// it meets the backup's term: fused into one multiply-add, as the
		// compiler may outside default amd64, costs would round once and tie
		// differently there.
		fa := float64(float64(demand) * sums[a])
		if residual >= demand {
			for b, serves := range row {
				if serves < req.Reliability {
					continue
				}
				side := sides[b]
				if side.gid == 0 {
					side = s.joinableLocked(b, req, view, demand, sums[b])
					sides[b] = side
				}
				cost := fa + side.term
				// Strictly cheaper wins. A tie goes to a join over opening a
				// group (pooling is the scheme's whole capacity advantage,
				// and the tie is the common λ = 0 early regime), then to the
				// lowest (primary, backup) — never the contender, since a
				// and b only ascend. So the holder keeps every tie but one:
				// it opens a group and the contender joins one.
				if cost > bestCost || cost == bestCost && (gid != newGroup || side.gid == newGroup) {
					continue
				}
				bestCost, primary, backup, gid = cost, a, b, side.gid
			}
		}
		if tracing {
			cands[a] = candidateTrace(a, row, req.Reliability, residual, demand, fa, sides)
		}
	}
	if gid == newGroup {
		gid = s.nextGroup
	}
	s.mu.RUnlock()
	admit := primary >= 0 && req.Payment-bestCost > 0
	if tracing {
		trace.RecordAttempt(s.rec, req, trace.ProposeTrace{Scheduler: s.name, Scheme: core.Shared.String(),
			Candidates: cands, BestCloudlet: primary, BestCost: bestCost, Admit: admit},
			[]core.Assignment{{Cloudlet: primary, Instances: 1}})
	}
	if !admit {
		return core.Placement{}, false
	}
	// The placement's two heap parts share one allocation.
	parts := &struct {
		primary [1]core.Assignment
		backup  core.SharedBackup
	}{
		primary: [1]core.Assignment{{Cloudlet: primary, Instances: 1}},
		backup:  core.SharedBackup{Group: gid, Cloudlet: backup, PoolSize: s.poolSize},
	}
	return core.Placement{
		Request:     req.ID,
		Scheme:      core.Shared,
		Assignments: parts.primary[:],
		Backup:      &parts.backup,
	}, true
}

// candidateTrace is primary a's entry in the decision trace: skipped for
// reliability when no backup serves the requirement with it, for capacity
// when it or every such backup lacks room, else priced at its cheapest
// pair. sides holds every serving backup resolved when a has room.
func candidateTrace(a int, row []float64, requirement float64, residual, demand int, fa float64, sides []backupSide) trace.Candidate {
	c := trace.Candidate{Cloudlet: a, Skip: trace.SkipReliability}
	cheapest := math.Inf(1)
	for b, serves := range row {
		if serves < requirement {
			continue
		}
		c.Instances, c.Skip = 1, trace.SkipCapacity
		if residual >= demand {
			cheapest = min(cheapest, fa+sides[b].term)
		}
	}
	if !math.IsInf(cheapest, 1) {
		c.Skip, c.DualCost, c.Residual = "", cheapest, residual
	}
	return c
}

// openKey is the index of the (backup cloudlet, VNF type) key in open.
func (s *Scheduler) openKey(backup, vnf int) int {
	return backup*len(s.network.Catalog) + vnf
}

// joinableLocked resolves the backup cloudlet's side of the request's
// pairs: the group it would join there, or a fresh one, and the price term
// of that choice. A group is joinable when every slot of the request's
// window has fewer than k concurrently active members and the slots the
// group does not already cover have marginal backup capacity. Opening a
// new group needs backup capacity over the whole window. The term prices
// the backup cloudlet's dual-price sum over the slots the chosen group
// does not cover (for a new group the whole window, whose sum the caller
// passes as windowSum) — the marginal footprint — amortized over the pool
// capacity. Among joinable groups the one with the cheapest marginal
// footprint wins. Caller holds mu (read side).
func (s *Scheduler) joinableLocked(backup int, req core.Request, view core.CapacityView, demand int, windowSum float64) backupSide {
	gid, uncovered := newGroup, windowSum
	row, w := s.prices.Row(backup), s.prices.Window
	for _, g := range s.open[s.openKey(backup, req.VNF)] {
		if g.end < req.Arrival {
			// Stale group: never joinable by an in-order arrival stream;
			// Commit retires these lazily.
			continue
		}
		fits := true
		sum := 0.0
		for t := req.Arrival; t <= req.End() && fits; t++ {
			switch i := w.Index(t); {
			case int(g.ref[i]) >= s.poolSize:
				fits = false
			case g.ref[i] == 0:
				if view.Residual(backup, t) < demand {
					fits = false
				}
				sum += row[i]
			}
		}
		if fits && (gid == newGroup || sum < uncovered) {
			gid, uncovered = g.id, sum
		}
	}
	if gid == newGroup && view.ResidualWindow(backup, req.Arrival, req.Duration) < demand {
		return backupSide{term: math.Inf(1), gid: newGroup}
	}
	return backupSide{term: float64(demand) * uncovered / float64(s.poolSize), gid: gid}
}

// Commit implements core.Scheduler: it joins (or creates) the
// proposal's backup group and applies the amortized dual updates under
// the write lock. The update is the Eq. (34) form with units = c(f) on
// the primary over the whole window, and units = c(f)/k on the backup
// over only the slots this member newly covered (refcount 0 → 1) — slots
// the group already held consumed no new capacity, so their prices must
// not move, or joins would be overpriced relative to the footprint they
// actually take:
//
//	λ := λ·(1 + units/cap) + units·pay/(d·cap)
func (s *Scheduler) Commit(req core.Request, p core.Placement) {
	if len(p.Assignments) != 1 || p.Backup == nil {
		return
	}
	primary, backup := p.Assignments[0].Cloudlet, p.Backup.Cloudlet
	demand := float64(s.network.Catalog[req.VNF].Demand)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Clamp to the live window before touching any ring: a slot outside it
	// has no cell of its own.
	lo, hi, ok := s.prices.Clamp(req.Arrival, req.End())
	if !ok {
		return
	}
	g := s.groupLocked(s.openKey(backup, req.VNF), p.Backup.Group, hi)
	s.retireLocked(req.Arrival)
	growth, additive := s.eq34(primary, demand, req)
	s.prices.Update(primary, lo, hi, growth, additive)
	// The join and the backup's update are one walk over the group's
	// refcounts and the backup's prices in lockstep.
	growth, additive = s.eq34(backup, demand/float64(s.poolSize), req)
	row, w := s.prices.Row(backup), s.prices.Window
	for t := lo; t <= hi; t++ {
		i := w.Index(t)
		if g.ref[i] == 0 {
			// Rounded as dual.Table.Update rounds, for the same reason.
			row[i] = float64(row[i]*growth) + additive
		}
		if g.ref[i] < math.MaxUint16 {
			g.ref[i]++
		}
	}
}

// eq34 returns the (growth, additive) pair of the dual update for units on
// one cloudlet.
func (s *Scheduler) eq34(cloudlet int, units float64, req core.Request) (growth, additive float64) {
	capj := float64(s.network.Cloudlets[cloudlet].Capacity)
	return 1 + units/capj, units * req.Payment / (float64(req.Duration) * capj)
}

// groupLocked returns the open group gid of the key, extended to cover
// slot hi, creating it when gid is a tentative new ID. A tentative ID that
// does not name an open group of the key although it was already issued
// (to a group of another key or one since retired, which serialized
// Propose→Commit pairs never produce) falls back to a fresh ID — the
// placement's recorded group then differs from scheduler bookkeeping,
// which only affects future join density, never availability. Caller
// holds the write lock.
func (s *Scheduler) groupLocked(key, gid, hi int) *group {
	for _, g := range s.open[key] {
		if g.id == gid {
			g.end = max(g.end, hi)
			return g
		}
	}
	if gid < s.nextGroup {
		gid = s.nextGroup
	}
	s.nextGroup = gid + 1
	var g *group
	if n := len(s.free); n > 0 {
		g, s.free = s.free[n-1], s.free[:n-1]
	} else {
		g = &group{ref: make([]uint16, s.prices.Len())}
	}
	g.id, g.key, g.end = gid, key, hi
	// The new ID is the largest issued, so appending keeps the key's
	// groups in ascending ID order.
	s.open[key] = append(s.open[key], g)
	s.ends.File(hi, g)
	return g
}

// Abort implements core.Scheduler. Propose acquires nothing, so
// aborting a proposal is a no-op.
func (s *Scheduler) Abort(core.Request, core.Placement) {}

// ConcurrentPropose implements core.Scheduler: false — proposals
// carry tentative group IDs whose uniqueness requires the Propose→Commit
// pairs to be serialized, so engines must drive this scheduler with one
// worker token: its holder is the only one between a Propose and its Commit.
func (s *Scheduler) ConcurrentPropose() bool { return false }
