package shared

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
	s, err := NewScheduler(n, window)
	if err != nil {
		tb.Fatal(err)
	}
	s.AdvanceWindow(base)
	pool := timeslot.NewPool(led)
	for i := range reqs {
		reqs[i].Arrival += base - 1
	}
	for _, r := range reqs {
		if led.Utilization() >= 0.5 {
			break
		}
		if p, ok := s.Decide(r, led); ok {
			d := n.Catalog[r.VNF].Demand
			if err := led.Reserve(p.Assignments[0].Cloudlet, r.Arrival, r.Duration, d); err != nil {
				tb.Fatal(err)
			}
			if err := pool.Acquire(p.Backup.Group, p.Backup.Cloudlet, r.Arrival, r.Duration, d); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s, led, reqs
}

var benchPlacement core.Placement

// BenchmarkPropose is the read-only half of a decision against the steady
// state; Propose changes nothing, so every iteration sees the same prices
// and the same ledger and groups.
func BenchmarkPropose(b *testing.B) {
	s, led, reqs := steadyState(b)
	admitted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := s.Propose(reqs[i%len(reqs)], led)
		if ok {
			admitted++
			benchPlacement = p
		}
	}
	b.ReportMetric(float64(admitted)/float64(b.N), "admitted/op")
}
