package offsite

import (
	"math/rand"
	"sort"
	"testing"

	"revnf/internal/core"
	"revnf/internal/timeslot"
	"revnf/internal/workload"
)

// steadyState builds what Propose sees in a running daemon: the paper's
// catalog on eight cloudlets, a rolling 64-slot ledger whose window has
// moved (the rings wrap) and is about half full, dual prices grown by the
// admissions that filled it, and a request stream over that window which
// the scheduler partly admits and partly declines.
func steadyState(tb testing.TB) (*Scheduler, *timeslot.Ledger, []core.Request) {
	tb.Helper()
	const window, base = 64, 40
	rng := rand.New(rand.NewSource(16))
	cloudlets, err := workload.RandomCloudlets(workload.CloudletConfig{
		Count: 8, MinCapacity: 5, MaxCapacity: 10, MaxReliability: 0.999, K: 1.05}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	n := &core.Network{Catalog: workload.DefaultCatalog(), Cloudlets: cloudlets}
	reqs, err := workload.GenerateTrace(workload.TraceConfig{
		Requests: 4096, Horizon: window, MinDuration: 1, MaxDuration: 10,
		MinRequirement: 0.90, MaxRequirement: 0.95, MaxPaymentRate: 10, H: 10}, n.Catalog, rng)
	if err != nil {
		tb.Fatal(err)
	}
	caps := make([]int, len(cloudlets))
	for j, c := range cloudlets {
		caps[j] = c.Capacity
	}
	led, err := timeslot.NewRolling(caps, window)
	if err != nil {
		tb.Fatal(err)
	}
	if err := led.Advance(base); err != nil {
		tb.Fatal(err)
	}
	s, err := NewScheduler(n, window)
	if err != nil {
		tb.Fatal(err)
	}
	s.AdvanceWindow(base)
	for i := range reqs {
		reqs[i].Arrival += base - 1
	}
	for _, r := range reqs {
		if led.Utilization() >= 0.5 {
			break
		}
		if p, ok := s.Decide(r, led); ok {
			for _, a := range p.Assignments {
				if err := led.Reserve(a.Cloudlet, r.Arrival, r.Duration, n.Catalog[r.VNF].Demand); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return s, led, reqs
}

// TestProposeAllocations pins Propose's allocation budget: nothing for a
// declined request, the placement's assignments for an admitted one.
func TestProposeAllocations(t *testing.T) {
	s, led, reqs := steadyState(t)
	seen := [2]bool{}
	for _, r := range reqs {
		_, ok := s.Propose(r, led)
		want := 0.0
		if ok {
			want = 1
		}
		if seen[int(want)] {
			continue
		}
		seen[int(want)] = true
		if got := testing.AllocsPerRun(100, func() { s.Propose(r, led) }); got != want {
			t.Errorf("Propose (admitted %v) allocates %v times, want %v", ok, got, want)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("stream is not mixed: declined seen %v, admitted seen %v", seen[0], seen[1])
	}
}

var benchPlacement core.Placement

// BenchmarkPropose is the read-only half of a decision against the steady
// state, read as serve.Engine reads it: one Reader.Load of the request's
// window, then Propose on the copy. Propose changes nothing, so every
// iteration sees the same prices and the same ledger; and since nothing
// writes to the ledger, Load keeps its copy on 98.6 % of the iterations
// (only the first windows of each arrival slot copy). This is the hit path:
// the run of rejections the engine mostly calls Propose in.
// BenchmarkReaderLoad/miss in internal/timeslot times the copy.
func BenchmarkPropose(b *testing.B) {
	s, led, reqs := steadyState(b)
	view := led.NewReader()
	admitted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		view.Load(req.Arrival, req.Duration)
		p, ok := s.Propose(req, view)
		if ok {
			admitted++
			benchPlacement = p
		}
	}
	b.ReportMetric(float64(admitted)/float64(b.N), "admitted/op")
}

// residualView is a capacity view with a fixed residual per cloudlet.
type residualView []int

func (v residualView) Capacity(j int) int                 { return v[j] }
func (v residualView) Residual(j, _ int) int              { return v[j] }
func (v residualView) ResidualWindow(j, _ int, _ int) int { return v[j] }

// TestSortCandidatesMatchesSortSlice compares the candidate order with the
// sort.Slice comparators it replaced, for every sort key and for candidate
// counts on both sides of the stack scratch, on keys drawn from three
// values so that most comparisons are ties decided by cloudlet ID.
func TestSortCandidatesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	req := core.Request{Arrival: 1, Duration: 2}
	for m := 1; m <= 40; m++ {
		n := &core.Network{Catalog: []core.VNF{{ID: 0, Name: "f", Demand: 1, Reliability: 0.9}}}
		view := make(residualView, m)
		for j := 0; j < m; j++ {
			n.Cloudlets = append(n.Cloudlets, core.Cloudlet{ID: j, Node: -1, Capacity: 10,
				Reliability: 0.9 + 0.01*float64(rng.Intn(3))})
			view[j] = rng.Intn(3)
		}
		for _, key := range []SortKey{SortByPrice, SortByReliability, SortByResidual} {
			s, err := NewScheduler(n, 8, WithSortKey(key))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]candidate, m)
			for i, j := range rng.Perm(m) {
				got[i] = candidate{cloudlet: j, price: float64(rng.Intn(3))}
			}
			want := append([]candidate(nil), got...)
			sort.Slice(want, func(a, b int) bool {
				ca, cb := want[a].cloudlet, want[b].cloudlet
				switch key {
				case SortByReliability:
					if ra, rb := n.Cloudlets[ca].Reliability, n.Cloudlets[cb].Reliability; ra != rb {
						return ra > rb
					}
				case SortByResidual:
					if view[ca] != view[cb] {
						return view[ca] > view[cb]
					}
				default:
					if want[a].price != want[b].price {
						return want[a].price < want[b].price
					}
				}
				return ca < cb
			})
			s.sortCandidates(got, req, view)
			for i := range got {
				if got[i].cloudlet != want[i].cloudlet {
					t.Fatalf("m=%d key=%d: position %d holds cloudlet %d, sort.Slice put %d there",
						m, key, i, got[i].cloudlet, want[i].cloudlet)
				}
			}
		}
	}
}
