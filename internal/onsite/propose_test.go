package onsite

import (
	"math/rand"
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
	s, err := NewScheduler(n, window, WithCapacityEnforcement())
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
			a := p.Assignments[0]
			if err := led.Reserve(a.Cloudlet, r.Arrival, r.Duration, a.Instances*n.Catalog[r.VNF].Demand); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s, led, reqs
}

// TestProposeAllocations pins Propose's allocation budget: nothing for a
// declined request, the placement's assignment for an admitted one.
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
// iteration sees the same prices and the same ledger.
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
