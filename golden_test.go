package revnf_test

import (
	"math/rand"
	"testing"

	"revnf"
	"revnf/internal/baseline"
	"revnf/internal/core"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/oracle"
	"revnf/internal/shared"
	"revnf/internal/simulate"
	"revnf/internal/workload"
)

// goldenEntry pins one scheduler's full decision trace on the golden
// instance: the admit/reject bit per request, the exact revenue, and a
// checksum over every placement's (cloudlet, instances) pairs.
type goldenEntry struct {
	name     string
	make     func(*workload.Instance) (core.Scheduler, error)
	admitted int
	revenue  float64
	// placementSum is Σ over admitted requests i of
	// (i+1)·(cloudlet + 3·instances) across the placement's assignments —
	// position-sensitive, so any reordering or re-placement changes it. A
	// shared placement adds (i+1)·(backup cloudlet + 3·group).
	placementSum int
	// decisions is the '1'/'0' admit bitstring in arrival order.
	decisions string
}

// TestGoldenTraces locks the schedulers to the decision traces captured
// before the two-phase propose/commit refactor (500 requests,
// DefaultInstanceConfig, seed 42; RNG seed 7 for the random baseline).
// The refactor — cached reliability tables, Propose/Commit splitting, the
// two-phase simulate path — is required to be bit-identical under serial
// driving: every admit bit, the exact revenue float, and every placement
// must match. A diff here means the refactor changed decisions, not just
// structure.
func TestGoldenTraces(t *testing.T) {
	inst, err := revnf.NewInstance(revnf.DefaultInstanceConfig(500), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenEntries() {
		t.Run(e.name, func(t *testing.T) {
			sched, err := e.make(inst)
			if err != nil {
				t.Fatal(err)
			}
			e.check(t, inst, sched)
		})
	}
}

func goldenEntries() []goldenEntry {
	return []goldenEntry{
		{
			name: "pd-onsite",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return onsite.NewScheduler(i.Network, i.Horizon, onsite.WithCapacityEnforcement())
			},
			admitted:     226,
			revenue:      15978.012463118082,
			placementSum: 365550,
			decisions:    "11111111111111111111110011000011010000000001100001110100000000111000111111011011010100100111101000000110010111000010110010000001111110011000110101110100001110010000110000101010100110010101111001011101100011010001010111111010110010000100010011111000000111011000100100001010111001100000001000010000001000111101111000010001000101100001111011000110110000001000101000010111000000111011000111100001011011011100011111000110010111000110110110010100100100100000001001011110000000010101000000001001100011000100",
		},
		{
			name: "pd-onsite-raw",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return onsite.NewScheduler(i.Network, i.Horizon)
			},
			admitted:     215,
			revenue:      17203.315896301254,
			placementSum: 320944,
			decisions:    "11111111111111111111110011000011110000000001110001110111000000111001111111011011011100100111101000000000011110000010110010000001110110010000110001110100001110010000110000111010000110010101111001011111101011010000000011110000110010100000000011111000000111010001100100001000110101100010001010010010001000001111001000000011000100100001111001000110100000000101011000010011000000111010010011000000001011111100011111000111010111000110100110010100101100101000101001000011100100000101010000001000000000010000",
		},
		{
			name: "pd-offsite",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return offsite.NewScheduler(i.Network, i.Horizon)
			},
			admitted:     244,
			revenue:      16112.53050347029,
			placementSum: 470463,
			decisions:    "11111111111111111111110011000111010100100001110001110011000000111000111111011011011100100110101000100110011111000010010001000001110110011001100111110100001100000000100000101110000110010111111001011111100111010100010011111010000010000101010011111100000001011000100101011011011011100010001000011100001010001101101000000011001101100001101011000110101000001001111011010001000000111010000111000000111011111110011111110110110111100110100110010000000011100000001000010110100000010101110011001101110101010101",
		},
		{
			name: "pd-shared",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return shared.NewScheduler(i.Network, i.Horizon)
			},
			admitted:     231,
			revenue:      13237.419546763424,
			placementSum: 6730093,
			decisions:    "11111111111111111111110001001110010000100001110001010010001010110000111101011111000110000100111010000110100111000011010001100001111110111001110111110100001000001001000000100010000110010111110000011001100011110110100111110000100010100001010111101110000001111100101101100010010101100000000011000000101010100101011110010010000101100001101111000011001000000000111011001000010011111011000001100000111011111010001111101110110101100101000110000000101010100100000000111011100000000101010011001101101000001001",
		},
		{
			name: "greedy-onsite",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return baseline.NewGreedyOnsite(i.Network)
			},
			admitted:     324,
			revenue:      14897.792167456262,
			placementSum: 547225,
			decisions:    "11111111111111111111111111111111111001110010010001111110010000111110111111111111111111110000111100010111100111011011011001000001111110101111100111111110000101001111010010101111111111011111111100011111000011111111110111111111000111000111111000111101000001111110111101111000011011100110110001100100111111100001111100010011111000000001111111100111111000000010110000011101100011111111101101110000111111111110101111111011111111111101000111100000000100100100000000011111110000010111111100001111111001011111",
		},
		{
			name: "greedy-offsite",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return baseline.NewGreedyOffsite(i.Network)
			},
			admitted:     310,
			revenue:      15053.457004176456,
			placementSum: 625694,
			decisions:    "11111111111111111111111111111011111101110010001000111110010000111110111101111111111111111001111100000111111110000001011000000001111110111111100100111111000100001110100000001111111111011111111101011110100111111101000111111101100110001111010000111111000001110010111111111000010011100110111001101000111110100001111100000011001101000001111111100111101000000010111010011101110001111111100001100000111111111111111111111100111111111111010010100000000110000100000000011110100010010111111010011111111101001111",
		},
		{
			name: "firstfit-onsite",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return baseline.NewFirstFitOnsite(i.Network)
			},
			admitted:     313,
			revenue:      15121.921907230704,
			placementSum: 509425,
			decisions:    "11111111111111111111111111111111110010011000010001111110010000111111111111111111111111100000111100010111110111001011011000000001111110101111100100111110000101001111010010101111111111111111111000011111000011111100010111111111110110001111100000111111010001110010111111111000011111100110111000000000101110110001111100100011001000000001111111010111101100000010111000010000000011111111111101110000111011111111101111111011111111100111011110000000000110100110000000011110110000010111110111011111111001101111",
		},
		{
			name: "random-onsite",
			make: func(i *workload.Instance) (core.Scheduler, error) {
				return baseline.NewRandomOnsite(i.Network, rand.New(rand.NewSource(7)))
			},
			admitted:     312,
			revenue:      14946.712494340214,
			placementSum: 531122,
			decisions:    "11111111111111111111111111111111110000100010010001111110010000111110111111111111111111100000111101000111110111010001011000000001111110111111110111111110000101001111010000001111111111011111111100011111100111111111100111111101000110001111110000111111000001110010111101111100010011101110010001110000111110100101111100011011001100000001111111000111101100000010101000011111000011111111101001100000011011111111111111101011111111100110000111100010000110100110000000011111100000000111110010011111101111101111",
		},
	}
}

// check runs sched over the golden instance and requires e's constants.
func (e goldenEntry) check(t *testing.T, inst *workload.Instance, sched core.Scheduler) {
	res, err := simulate.Run(inst, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != e.admitted {
		t.Errorf("admitted: got %d, golden %d", res.Admitted, e.admitted)
	}
	if res.Revenue != e.revenue {
		t.Errorf("revenue: got %v, golden %v (must be bit-identical)", res.Revenue, e.revenue)
	}
	bits := make([]byte, len(res.Decisions))
	sum := 0
	for i, d := range res.Decisions {
		if d.Admitted {
			bits[i] = '1'
			for _, a := range d.Placement.Assignments {
				sum += (i + 1) * (a.Cloudlet + 3*a.Instances)
			}
			if b := d.Placement.Backup; b != nil {
				sum += (i + 1) * (b.Cloudlet + 3*b.Group)
			}
		} else {
			bits[i] = '0'
		}
	}
	if sum != e.placementSum {
		t.Errorf("placement checksum: got %d, golden %d", sum, e.placementSum)
	}
	if got := string(bits); got != e.decisions {
		for i := range got {
			if got[i] != e.decisions[i] {
				t.Errorf("decision trace diverges at request %d: got %c, golden %c", i, got[i], e.decisions[i])
				break
			}
		}
	}
}

// decideOnly drives a scheduler through its Decide method alone: the
// Propose simulate.Run calls is the scheduler's Decide, which commits, and
// the Commit it calls after the reservation does nothing.
type decideOnly struct{ core.TwoPhaseScheduler }

func (d decideOnly) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	return d.Decide(req, view)
}

func (decideOnly) Commit(core.Request, core.Placement) {}

// TestGoldenDecide drives the three primal-dual schedulers through Decide
// alone and requires the goldens the two-phase path meets in
// TestGoldenTraces: Decide ≡ Propose;Commit, the equivalence the scheduler
// contract promises and core.Decide states.
func TestGoldenDecide(t *testing.T) {
	inst, err := revnf.NewInstance(revnf.DefaultInstanceConfig(500), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenEntries() {
		if e.name != "pd-onsite" && e.name != "pd-offsite" && e.name != "pd-shared" {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			sched, err := e.make(inst)
			if err != nil {
				t.Fatal(err)
			}
			withDecide, ok := sched.(core.TwoPhaseScheduler)
			if !ok {
				t.Fatalf("%s has no Decide method", sched.Name())
			}
			e.check(t, inst, decideOnly{withDecide})
		})
	}
}

// TestAdmittedPlacementsMeetRequirementUnderOracle checks the paper's
// claim, P(A_i) ≥ R_i for every admitted request, on the golden instance
// against internal/oracle's state enumeration instead of against the closed
// forms the schedulers and Placement.Validate share: a bug common to those
// would pass every golden and fail here. The shared scheme is enumerated at
// its pool's full capacity with every peer at the network's least reliable
// cloudlet, the conditions the admission promises to hold under.
func TestAdmittedPlacementsMeetRequirementUnderOracle(t *testing.T) {
	inst, err := revnf.NewInstance(revnf.DefaultInstanceConfig(500), 42)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.Network
	worst := 1.0
	for _, cl := range n.Cloudlets {
		worst = min(worst, cl.Reliability)
	}
	for name, build := range map[string]func() (core.Scheduler, error){
		"pd-onsite": func() (core.Scheduler, error) {
			return onsite.NewScheduler(n, inst.Horizon, onsite.WithCapacityEnforcement())
		},
		"pd-offsite":   func() (core.Scheduler, error) { return offsite.NewScheduler(n, inst.Horizon) },
		"pd-shared-k2": func() (core.Scheduler, error) { return shared.NewScheduler(n, inst.Horizon, shared.WithPoolSize(2)) },
		"pd-shared-k4": func() (core.Scheduler, error) { return shared.NewScheduler(n, inst.Horizon, shared.WithPoolSize(4)) },
	} {
		t.Run(name, func(t *testing.T) {
			sched, err := build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := simulate.Run(inst, sched)
			if err != nil {
				t.Fatal(err)
			}
			if res.Admitted < 100 {
				t.Fatalf("only %d admissions to check", res.Admitted)
			}
			for i, d := range res.Decisions {
				if !d.Admitted {
					continue
				}
				req, p := inst.Trace[i], d.Placement
				if req.ID != d.Request {
					t.Fatalf("decision %d is for request %d, trace has %d", i, d.Request, req.ID)
				}
				rf := n.Catalog[req.VNF].Reliability
				var sites []oracle.Site
				for _, a := range p.Assignments {
					sites = append(sites, oracle.Site{Rc: n.Cloudlets[a.Cloudlet].Reliability, N: a.Instances})
				}
				var pool *oracle.Pool
				if b := p.Backup; b != nil {
					pool = &oracle.Pool{Rc: n.Cloudlets[b.Cloudlet].Reliability, Peers: oracle.Peers(rf*worst, b.PoolSize-1)}
				}
				avail := oracle.Availability(rf, sites, pool)
				if avail+1e-12 < req.Reliability {
					t.Errorf("request %d admitted onto %v (backup %+v): enumerated availability %v < R = %v",
						req.ID, p.Assignments, p.Backup, avail, req.Reliability)
				}
			}
		})
	}
}
