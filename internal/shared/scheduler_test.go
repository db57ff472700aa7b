package shared

import (
	"math/rand"
	"testing"

	"revnf/internal/core"
	"revnf/internal/timeslot"
)

func testNetwork() *core.Network {
	return &core.Network{
		Catalog: []core.VNF{
			{ID: 0, Name: "fw", Demand: 1, Reliability: 0.95},
			{ID: 1, Name: "ids", Demand: 2, Reliability: 0.9},
		},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: 0, Capacity: 6, Reliability: 0.99},
			{ID: 1, Node: 1, Capacity: 5, Reliability: 0.97},
			{ID: 2, Node: 2, Capacity: 7, Reliability: 0.98},
			{ID: 3, Node: 3, Capacity: 4, Reliability: 0.96},
		},
	}
}

// refGroup and refScheduler are the oracle the ring-based scheduler is
// compared against: the same pricing and join rules with every piece of
// per-slot state in a map keyed by the absolute slot, so nothing in it
// can alias, wrap or need clearing. Group membership is never trimmed:
// a group's map gains an entry for every slot it was ever joined at.
type refGroup struct {
	id, backup, vnf, end int
	ref                  map[int]int
}

type refScheduler struct {
	net              *core.Network
	k, horizon, base int
	lambda           []map[int]float64
	groups           []*refGroup // ascending ID
	next             int
}

func newRef(net *core.Network, horizon, k int) *refScheduler {
	r := &refScheduler{net: net, k: k, horizon: horizon, base: 1, next: 1}
	for range net.Cloudlets {
		r.lambda = append(r.lambda, map[int]float64{})
	}
	return r
}

// join resolves the group the request would join on the backup cloudlet
// and the dual-price sum over the slots it would newly cover.
func (r *refScheduler) join(b int, req core.Request, view core.CapacityView, demand int) (g *refGroup, uncovered float64, ok bool) {
	for _, og := range r.groups {
		if og.backup != b || og.vnf != req.VNF || og.end < req.Arrival {
			continue
		}
		fits, sum := true, 0.0
		for t := req.Arrival; t <= req.End() && fits; t++ {
			if og.ref[t] >= r.k || og.ref[t] == 0 && view.Residual(b, t) < demand {
				fits = false
			}
			if og.ref[t] == 0 {
				sum += r.lambda[b][t]
			}
		}
		if fits && (g == nil || sum < uncovered) {
			g, uncovered = og, sum
		}
	}
	if g != nil {
		return g, uncovered, true
	}
	if view.ResidualWindow(b, req.Arrival, req.Duration) < demand {
		return nil, 0, false
	}
	for t := req.Arrival; t <= req.End(); t++ {
		uncovered += r.lambda[b][t]
	}
	return nil, uncovered, true
}

func (r *refScheduler) retire(limit int) {
	kept := r.groups[:0]
	for _, g := range r.groups {
		if g.end >= limit {
			kept = append(kept, g)
		}
	}
	r.groups = kept
}

func (r *refScheduler) advance(base int) {
	if base <= r.base {
		return
	}
	r.base = base
	for _, prices := range r.lambda {
		for t := range prices {
			if t < base {
				delete(prices, t)
			}
		}
	}
	r.retire(base)
}

func (r *refScheduler) decide(req core.Request, view core.CapacityView) (primary, backup, gid int, admitted bool) {
	if req.Arrival < r.base || req.End() > r.base+r.horizon-1 {
		return 0, 0, 0, false
	}
	demand := r.net.Catalog[req.VNF].Demand
	rf := r.net.Catalog[req.VNF].Reliability
	floor := core.SharedContentionFloor(rf, r.net.Cloudlets)
	var best pairCandidate
	var bestGroup *refGroup
	found := false
	for a := range r.net.Cloudlets {
		if view.ResidualWindow(a, req.Arrival, req.Duration) < demand {
			continue
		}
		sum := 0.0
		for t := req.Arrival; t <= req.End(); t++ {
			sum += r.lambda[a][t]
		}
		for b := range r.net.Cloudlets {
			avail := core.SharedReliabilityK(rf, r.net.Cloudlets[a].Reliability, r.net.Cloudlets[b].Reliability, floor, r.k)
			if a == b || !core.MeetsRequirement(avail, req.Reliability) {
				continue
			}
			g, uncovered, ok := r.join(b, req, view, demand)
			if !ok {
				continue
			}
			cand := pairCandidate{primary: a, backup: b, newGroup: g == nil,
				cost: float64(demand)*sum + float64(demand)*uncovered/float64(r.k)}
			if cand.better(best, found) {
				best, bestGroup, found = cand, g, true
			}
		}
	}
	if !found || req.Payment-best.cost <= 0 {
		return 0, 0, 0, false
	}
	g := bestGroup
	if g == nil {
		g = &refGroup{id: r.next, backup: best.backup, vnf: req.VNF, ref: map[int]int{}}
		r.next++
		r.groups = append(r.groups, g)
	}
	bump := func(j int, units float64, t int) {
		capj := float64(r.net.Cloudlets[j].Capacity)
		growth := 1 + units/capj
		additive := units * req.Payment / (float64(req.Duration) * capj)
		r.lambda[j][t] = r.lambda[j][t]*growth + additive
	}
	for t := req.Arrival; t <= req.End(); t++ {
		bump(best.primary, float64(demand), t)
		if g.ref[t] == 0 {
			bump(best.backup, float64(demand)/float64(r.k), t)
		}
		g.ref[t]++
	}
	if req.End() > g.end {
		g.end = req.End()
	}
	r.retire(req.Arrival)
	return best.primary, best.backup, g.id, true
}

// rig drives one scheduler the way the serve engine does: admitted
// footprints are booked in a rolling ledger and pool, released when their
// window ends, and the window base follows the clock up to the first slot
// a live footprint holds.
type rig struct {
	t      *testing.T
	demand func(vnf int) int
	led    *timeslot.Ledger
	pool   *timeslot.Pool
	live   []booking
}

type booking struct {
	req                    core.Request
	primary, backup, group int
}

func newRig(t *testing.T, net *core.Network, window int) *rig {
	t.Helper()
	caps := make([]int, len(net.Cloudlets))
	for j, c := range net.Cloudlets {
		caps[j] = c.Capacity
	}
	led, err := timeslot.NewRolling(caps, window)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, led: led, pool: timeslot.NewPool(led),
		demand: func(vnf int) int { return net.Catalog[vnf].Demand }}
}

func (r *rig) book(b booking) {
	r.t.Helper()
	d := r.demand(b.req.VNF)
	if err := r.led.Reserve(b.primary, b.req.Arrival, b.req.Duration, d); err != nil {
		r.t.Fatalf("request %d: primary: %v", b.req.ID, err)
	}
	if err := r.pool.Acquire(b.group, b.backup, b.req.Arrival, b.req.Duration, d); err != nil {
		r.t.Fatalf("request %d: backup: %v", b.req.ID, err)
	}
	r.live = append(r.live, b)
}

// tick releases the footprints that ended before slot and returns the new
// window base.
func (r *rig) tick(slot int) int {
	r.t.Helper()
	kept := r.live[:0]
	for _, b := range r.live {
		if b.req.End() >= slot {
			kept = append(kept, b)
			continue
		}
		d := r.demand(b.req.VNF)
		if err := r.led.Release(b.primary, b.req.Arrival, b.req.Duration, d); err != nil {
			r.t.Fatal(err)
		}
		if err := r.pool.Release(b.group, b.req.Arrival, b.req.Duration); err != nil {
			r.t.Fatal(err)
		}
	}
	r.live = kept
	if err := r.led.Advance(slot); err != nil {
		r.t.Fatal(err)
	}
	return r.led.Base()
}

// churn draws the request stream of one slot: arrivals up to two slots
// ahead of the clock, in no particular order.
func churn(rng *rand.Rand, id *int, slot, n int) []core.Request {
	reqs := make([]core.Request, n)
	for i := range reqs {
		*id++
		reqs[i] = core.Request{
			ID:          *id,
			VNF:         rng.Intn(2),
			Reliability: 0.9 + 0.09*rng.Float64(),
			Arrival:     slot + rng.Intn(3),
			Duration:    1 + rng.Intn(6),
			Payment:     0.5 + 12*rng.Float64(),
		}
	}
	return reqs
}

// TestDifferentialAgainstMapReference runs the same out-of-order stream
// through the scheduler and the map-keyed oracle over several laps of a
// rolling window and demands the same admissions, the same (primary,
// backup, group) on each, and bit-identical dual prices after every slot.
func TestDifferentialAgainstMapReference(t *testing.T) {
	const window, laps, poolSize = 10, 8, 3
	for seed := int64(1); seed <= 5; seed++ {
		net := testNetwork()
		s, err := NewScheduler(net, window, WithPoolSize(poolSize))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(net, window, poolSize)
		got, want := newRig(t, net, window), newRig(t, net, window)
		rng := rand.New(rand.NewSource(seed))
		id, admitted := 0, 0
		for slot := 1; slot <= laps*window; slot++ {
			for _, req := range churn(rng, &id, slot, 6) {
				p, ok := s.Decide(req, got.led)
				a, b, gid, refOK := ref.decide(req, want.led)
				if ok != refOK {
					t.Fatalf("seed %d request %+v: admitted %v, reference %v", seed, req, ok, refOK)
				}
				if !ok {
					continue
				}
				admitted++
				if p.Assignments[0].Cloudlet != a || p.Backup.Cloudlet != b || p.Backup.Group != gid {
					t.Fatalf("seed %d request %+v: placed (%d,%d,group %d), reference (%d,%d,group %d)",
						seed, req, p.Assignments[0].Cloudlet, p.Backup.Cloudlet, p.Backup.Group, a, b, gid)
				}
				got.book(booking{req, a, b, gid})
				want.book(booking{req, a, b, gid})
			}
			base := got.tick(slot + 1)
			if wb := want.tick(slot + 1); wb != base {
				t.Fatalf("seed %d slot %d: bases diverged: %d vs %d", seed, slot, base, wb)
			}
			s.AdvanceWindow(base)
			ref.advance(base)
			for j := range net.Cloudlets {
				for ts := base - 1; ts <= base+window; ts++ {
					if g, w := s.Lambda(j, ts), ref.lambda[j][ts]; g != w {
						t.Fatalf("seed %d slot %d: λ(%d,%d) = %v, reference %v", seed, slot, j, ts, g, w)
					}
				}
			}
		}
		if admitted < laps*window {
			t.Fatalf("seed %d: only %d admissions; the stream does not exercise joins", seed, admitted)
		}
	}
}

// TestGroupStateBounded pins what the rings buy in a daemon that never
// stops: after ten laps of churn every open group still has exactly one
// cell per live slot, cells of slots nobody covers are zero, and the
// number of groups (open and recycled) is what it was after two laps.
func TestGroupStateBounded(t *testing.T) {
	const window = 16
	net := testNetwork()
	s, err := NewScheduler(net, window)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, net, window)
	rng := rand.New(rand.NewSource(7))
	count := func() (open, total int) {
		for _, groups := range s.open {
			open += len(groups)
		}
		return open, open + len(s.free)
	}
	id, earlyTotal := 0, 0
	for slot := 1; slot <= 10*window; slot++ {
		for _, req := range churn(rng, &id, slot, 6) {
			if p, ok := s.Decide(req, r.led); ok {
				r.book(booking{req, p.Assignments[0].Cloudlet, p.Backup.Cloudlet, p.Backup.Group})
			}
		}
		base := r.tick(slot + 1)
		s.AdvanceWindow(base)
		if slot == 2*window {
			_, earlyTotal = count()
		}
	}
	open, total := count()
	if open == 0 {
		t.Fatal("no open groups after the churn")
	}
	if total > earlyTotal+earlyTotal/2 {
		t.Fatalf("%d groups after ten laps, %d after two: group state grows", total, earlyTotal)
	}
	for _, groups := range s.open {
		for _, g := range groups {
			if len(g.ref) != window {
				t.Fatalf("group %d holds %d cells, want %d", g.id, len(g.ref), window)
			}
			for ts := s.prices.Base(); ts < s.prices.Base()+window; ts++ {
				if ts > g.end && g.ref[s.prices.Index(ts)] != 0 {
					t.Fatalf("group %d (end %d) counts %d members at slot %d", g.id, g.end, g.ref[s.prices.Index(ts)], ts)
				}
			}
		}
	}
	for _, g := range s.free {
		for i, c := range g.ref {
			if c != 0 {
				t.Fatalf("recycled group %d has cell %d = %d", g.id, i, c)
			}
		}
	}
}

// fullView is a capacity view that never refuses.
type fullView struct{}

func (fullView) Capacity(int) int                 { return 1 << 20 }
func (fullView) Residual(int, int) int            { return 1 << 20 }
func (fullView) ResidualWindow(int, int, int) int { return 1 << 20 }

// TestDecideAllocations pins the allocation budget of the admission path:
// nothing for a declined request, the returned placement for an admitted
// one — whether it joins a group or opens one, since a new group reuses
// the ring of one that retired.
func TestDecideAllocations(t *testing.T) {
	s, err := NewScheduler(testNetwork(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{VNF: 0, Reliability: 0.9, Arrival: 1, Duration: 4, Payment: 50}
	calls := 0
	if n := testing.AllocsPerRun(200, func() {
		// Two requests per window: the first opens a group (the previous
		// window's is stale), the second joins it.
		req.Arrival = 1 + calls/2*8
		calls++
		if _, ok := s.Decide(req, fullView{}); !ok {
			t.Fatalf("request at slot %d declined", req.Arrival)
		}
	}); n > 1 {
		t.Errorf("admitted Decide allocates %v times, want at most 1", n)
	}
	req.Payment = 0
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := s.Decide(req, fullView{}); ok {
			t.Fatal("unpaid request admitted")
		}
	}); n != 0 {
		t.Errorf("declined Decide allocates %v times, want 0", n)
	}
}
