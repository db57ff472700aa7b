package shared

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"revnf/internal/core"
)

// pairCandidate, better and refPropose are the pair scan Propose ran before
// it was rewritten around per-backup price terms, kept as the reference the
// rewrite is held to: a candidate struct per pair, the cost recomputed with
// its division for every pair, and the full lexicographic tie-break. The
// map oracle in scheduler_test.go breaks its ties with better too.
type pairCandidate struct {
	primary, backup int
	cost            float64
	groupID         int  // group to join, or the tentative new-group ID
	newGroup        bool // true when groupID would be freshly created
}

// better reports whether c should replace cur as the admitted pair:
// strictly cheaper wins; on a cost tie a join beats opening a new group,
// then lowest (primary, backup) for determinism.
func (c pairCandidate) better(cur pairCandidate, found bool) bool {
	if !found || c.cost < cur.cost {
		return true
	}
	if c.cost > cur.cost {
		return false
	}
	if c.newGroup != cur.newGroup {
		return !c.newGroup
	}
	if c.primary != cur.primary {
		return c.primary < cur.primary
	}
	return c.backup < cur.backup
}

// refJoinable is the predecessor's join resolution for one backup cloudlet,
// reading the scheduler's own groups and prices.
func refJoinable(s *Scheduler, backup int, req core.Request, view core.CapacityView, demand int, windowSum float64) (id int, isNew bool, uncovered float64, ok bool) {
	bestGid, bestSum, foundJoin := 0, 0.0, false
	for _, g := range s.open[s.openKey(backup, req.VNF)] {
		if g.end < req.Arrival {
			continue
		}
		fits, sum := true, 0.0
		for t := req.Arrival; t <= req.End() && fits; t++ {
			switch ref := g.ref[s.prices.Index(t)]; {
			case int(ref) >= s.poolSize:
				fits = false
			case ref == 0:
				if view.Residual(backup, t) < demand {
					fits = false
				}
				sum += s.prices.At(backup, t)
			}
		}
		if fits && (!foundJoin || sum < bestSum) {
			bestGid, bestSum, foundJoin = g.id, sum, true
		}
	}
	if foundJoin {
		return bestGid, false, bestSum, true
	}
	if view.ResidualWindow(backup, req.Arrival, req.Duration) < demand {
		return 0, false, 0, false
	}
	return s.nextGroup, true, windowSum, true
}

// refPropose is the predecessor's Propose on the scheduler's current state.
func refPropose(s *Scheduler, req core.Request, view core.CapacityView) (best pairCandidate, admit bool) {
	if !s.prices.Contains(req.Arrival, req.End()) {
		return best, false
	}
	demand := s.network.Catalog[req.VNF].Demand
	m := len(s.network.Cloudlets)
	sums := make([]float64, m)
	for j := range sums {
		sums[j] = s.prices.Sum(j, req.Arrival, req.End(), 1)
	}
	found := false
	for a := 0; a < m; a++ {
		primaryOK := view.ResidualWindow(a, req.Arrival, req.Duration) >= demand
		for b, serves := range s.pairs.Row(req.VNF, a, req.Reliability) {
			if serves < req.Reliability || !primaryOK {
				continue
			}
			gid, isNew, uncovered, ok := refJoinable(s, b, req, view, demand, sums[b])
			if !ok {
				continue
			}
			cost := float64(float64(demand)*sums[a]) + float64(demand)*uncovered/float64(s.poolSize)
			cand := pairCandidate{primary: a, backup: b, cost: cost, groupID: gid, newGroup: isNew}
			if cand.better(best, found) {
				best, found = cand, true
			}
		}
	}
	return best, found && req.Payment-best.cost > 0
}

// checkScan holds one Propose to the reference scan on the same state.
func checkScan(t *testing.T, s *Scheduler, req core.Request, view core.CapacityView) (core.Placement, bool) {
	t.Helper()
	want, wantOK := refPropose(s, req, view)
	p, ok := s.Propose(req, view)
	if ok != wantOK {
		t.Fatalf("request %+v: admitted %v, reference scan %v", req, ok, wantOK)
	}
	if !ok {
		return p, false
	}
	if a, b := p.Assignments[0].Cloudlet, p.Backup; a != want.primary || b.Cloudlet != want.backup ||
		b.Group != want.groupID || b.PoolSize != s.poolSize {
		t.Fatalf("request %+v: placed (%d,%d,group %d,k %d), reference scan (%d,%d,group %d,k %d)",
			req, a, b.Cloudlet, b.Group, b.PoolSize, want.primary, want.backup, want.groupID, s.poolSize)
	}
	return p, true
}

// randomNetwork draws m cloudlets under the two-VNF test catalog. With
// uniform set, every cloudlet is the same, so per-cloudlet sums tie until
// the admissions themselves break the symmetry.
func randomNetwork(rng *rand.Rand, m int, uniform bool) *core.Network {
	net := &core.Network{Catalog: testNetwork().Catalog}
	for j := 0; j < m; j++ {
		c := core.Cloudlet{ID: j, Node: j, Capacity: 6, Reliability: 0.98}
		if !uniform {
			c.Capacity, c.Reliability = 4+rng.Intn(6), 0.95+0.049*rng.Float64()
		}
		net.Cloudlets = append(net.Cloudlets, c)
	}
	return net
}

// TestScanMatchesPredecessor drives the churn stream of the map-oracle
// harness through schedulers of every pool size and network size the scan
// has a path for — 33 cloudlets take the heap scratch past stackCloudlets
// — and holds every Propose to the reference scan: same admission, primary,
// backup, group ID and pool size. Every stream starts on a fresh scheduler,
// where λ = 0 and every cost ties; the uniform networks keep the
// per-cloudlet sums tied for as long as admissions allow.
func TestScanMatchesPredecessor(t *testing.T) {
	const window, laps = 10, 4
	for _, k := range []int{1, 2, 4, 16} {
		for _, m := range []int{2, 8, 33} {
			for _, uniform := range []bool{false, true} {
				t.Run(fmt.Sprintf("k=%d/m=%d/uniform=%v", k, m, uniform), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*k + m)))
					net := randomNetwork(rng, m, uniform)
					s, err := NewScheduler(net, window, WithPoolSize(k))
					if err != nil {
						t.Fatal(err)
					}
					r := newRig(t, net, window)
					view := r.led.NewReader()
					id, admitted, joins := 0, 0, 0
					for slot := 1; slot <= laps*window; slot++ {
						for _, req := range churn(rng, &id, slot, 2+m/2) {
							view.Load(req.Arrival, req.Duration)
							p, ok := checkScan(t, s, req, view)
							if !ok {
								continue
							}
							if p.Backup.Group < s.nextGroup {
								joins++
							}
							admitted++
							s.Commit(req, p)
							r.book(booking{req, p.Assignments[0].Cloudlet, p.Backup.Cloudlet, p.Backup.Group})
						}
						s.AdvanceWindow(r.tick(slot + 1))
					}
					if admitted < laps*window || k > 1 && joins == 0 {
						t.Fatalf("%d admissions, %d joins: the stream does not exercise the scan", admitted, joins)
					}
				})
			}
		}
	}
}

// commitTo books one member by hand: primary a, backup b, the given group.
func commitTo(s *Scheduler, req core.Request, a, b, gid int) {
	s.Commit(req, core.Placement{
		Request:     req.ID,
		Scheme:      core.Shared,
		Assignments: []core.Assignment{{Cloudlet: a, Instances: 1}},
		Backup:      &core.SharedBackup{Group: gid, Cloudlet: b, PoolSize: s.poolSize},
	})
}

// TestScanTies pins the tie rule on states built to tie, against literal
// answers as well as the reference scan.
func TestScanTies(t *testing.T) {
	req := core.Request{ID: 1, VNF: 0, Reliability: 0.9, Arrival: 2, Duration: 3, Payment: 50}
	fresh := func(t *testing.T) *Scheduler {
		s, err := NewScheduler(randomNetwork(nil, 4, true), 16, WithPoolSize(3))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	expect := func(t *testing.T, s *Scheduler, a, b, gid int) {
		t.Helper()
		p, ok := checkScan(t, s, req, fullView{})
		if !ok || p.Assignments[0].Cloudlet != a || p.Backup.Cloudlet != b || p.Backup.Group != gid {
			t.Fatalf("placed %+v %+v (admitted %v), want (%d,%d,group %d)", p.Assignments, p.Backup, ok, a, b, gid)
		}
	}
	t.Run("fresh scheduler", func(t *testing.T) {
		// Every pair costs 0 and opens a group: the lowest pair holds.
		expect(t, fresh(t), 0, 1, 1)
	})
	t.Run("equal sums", func(t *testing.T) {
		s := fresh(t)
		for j := range s.network.Cloudlets {
			s.prices.Update(j, 1, 16, 1, 0.25)
		}
		expect(t, s, 0, 1, 1)
	})
	t.Run("join ties new group", func(t *testing.T) {
		// A member on (0, 3) covering the request's window: joining its
		// group costs nothing on cloudlet 3, opening one on the untouched
		// cloudlets costs nothing either, and cloudlet 0 now has a price.
		// The earlier pair (1, 0) pays for cloudlet 0's backup prices, the
		// tying (1, 2) opens a group, so the join on (1, 3) takes the tie
		// and the later joins (2, 3) do not take it back.
		s := fresh(t)
		commitTo(s, core.Request{VNF: 0, Arrival: 1, Duration: 6, Payment: 9}, 0, 3, 1)
		expect(t, s, 1, 3, 1)
	})
	t.Run("two groups tie", func(t *testing.T) {
		// Two groups of one key, both covering the window: equal marginal
		// sums of 0, the lower ID holds.
		s := fresh(t)
		commitTo(s, core.Request{VNF: 0, Arrival: 1, Duration: 6, Payment: 9}, 0, 3, 1)
		commitTo(s, core.Request{VNF: 0, Arrival: 1, Duration: 6, Payment: 9}, 0, 3, 2)
		if got := len(s.open[s.openKey(3, 0)]); got != 2 {
			t.Fatalf("%d groups under the key, want 2", got)
		}
		expect(t, s, 1, 3, 1)
	})
}

// keyScan is the retirement the end-slot cells replaced, on a model of the
// join index: every key's groups in ascending ID order, scanned in full.
type keyScan struct {
	open [][][2]int // open[key]: (id, end) pairs
	next int
}

func (m *keyScan) commit(key, gid, hi, arrival int) {
	at := slices.IndexFunc(m.open[key], func(g [2]int) bool { return g[0] == gid })
	if at >= 0 {
		m.open[key][at][1] = max(m.open[key][at][1], hi)
	} else {
		gid = max(gid, m.next)
		m.next = gid + 1
		m.open[key] = append(m.open[key], [2]int{gid, hi})
	}
	m.retire(arrival)
}

func (m *keyScan) retire(limit int) {
	for key := range m.open {
		m.open[key] = slices.DeleteFunc(m.open[key], func(g [2]int) bool { return g[1] < limit })
	}
}

// TestRetirementMatchesKeyScan runs random Commit and AdvanceWindow
// sequences — arrivals out of order and behind the base, joins that extend
// a group's end, tentative IDs that name nothing, advances past the whole
// ring — and after every call demands the join index the full key scan
// leaves: the same groups under every key in the same order (so the same
// set retired by that call), with every open group filed under exactly one
// end-slot cell between the index's base and its end.
func TestRetirementMatchesKeyScan(t *testing.T) {
	const window = 12
	for seed := int64(1); seed <= 5; seed++ {
		net := testNetwork()
		s, err := NewScheduler(net, window)
		if err != nil {
			t.Fatal(err)
		}
		model := &keyScan{open: make([][][2]int, len(s.open)), next: 1}
		rng := rand.New(rand.NewSource(seed))
		base, retired := 1, 0
		check := func(step int, call string) {
			t.Helper()
			open := map[*group]bool{}
			for key, groups := range s.open {
				var got [][2]int
				for _, g := range groups {
					got = append(got, [2]int{g.id, g.end})
					open[g] = true
					if g.key != key {
						t.Fatalf("seed %d step %d %s: group %d under key %d records key %d", seed, step, call, g.id, key, g.key)
					}
					if g.end < s.ends.Base() {
						t.Fatalf("seed %d step %d %s: group %d ends at %d, before the index's base %d", seed, step, call, g.id, g.end, s.ends.Base())
					}
				}
				if !slices.Equal(got, model.open[key]) {
					t.Fatalf("seed %d step %d %s: key %d holds %v, key scan %v", seed, step, call, key, got, model.open[key])
				}
			}
			filed := 0
			for ts := base; ts < base+window; ts++ {
				for _, g := range s.ends.Cell(ts) {
					filed++
					if !open[g] || ts < s.ends.Base() || ts > g.end {
						t.Fatalf("seed %d step %d %s: group %d (open %v, end %d) filed under slot %d, index base %d",
							seed, step, call, g.id, open[g], g.end, ts, s.ends.Base())
					}
				}
			}
			if filed != len(open) {
				t.Fatalf("seed %d step %d %s: %d groups filed, %d open", seed, step, call, filed, len(open))
			}
		}
		for step := 0; step < 4000; step++ {
			if rng.Intn(6) == 0 {
				switch rng.Intn(8) {
				case 0:
					base += window + rng.Intn(window)
				case 1:
					// Backward and no-op advances change nothing.
					s.AdvanceWindow(base - rng.Intn(3))
					check(step, "backward advance")
				default:
					base += rng.Intn(4)
				}
				before := len(s.free)
				s.AdvanceWindow(base)
				model.retire(base)
				retired += len(s.free) - before
				check(step, fmt.Sprintf("advance to %d", base))
				continue
			}
			backup, vnf := rng.Intn(len(net.Cloudlets)), rng.Intn(len(net.Catalog))
			key := s.openKey(backup, vnf)
			req := core.Request{VNF: vnf, Arrival: base - 2 + rng.Intn(window+2), Duration: 1 + rng.Intn(5), Payment: 1}
			gid := s.nextGroup
			if groups := s.open[key]; len(groups) > 0 && rng.Intn(3) > 0 {
				gid = groups[rng.Intn(len(groups))].id
			} else if rng.Intn(8) == 0 {
				gid = 1 + rng.Intn(s.nextGroup) // issued to another key, or retired
			}
			commitTo(s, req, (backup+1)%len(net.Cloudlets), backup, gid)
			if _, hi, ok := s.prices.Clamp(req.Arrival, req.End()); ok {
				model.commit(key, gid, hi, req.Arrival)
			}
			check(step, fmt.Sprintf("commit %+v to group %d", req, gid))
		}
		if retired < 100 || model.next < 200 {
			t.Fatalf("seed %d: %d groups opened, %d retired by advances: the sequence does not exercise retirement", seed, model.next-1, retired)
		}
	}
}
