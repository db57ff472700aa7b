package onsite

import (
	"math/rand"
	"reflect"
	"testing"

	"revnf/internal/core"
	"revnf/internal/timeslot"
	"revnf/internal/trace"
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
	n, caps, reqs := drawInstance(tb, 16, 4096, window)
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

// drawInstance draws the paper's catalog on eight cloudlets, their
// capacities, and a request stream over a window of that many slots.
func drawInstance(tb testing.TB, seed int64, requests, window int) (*core.Network, []int, []core.Request) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	cloudlets, err := workload.RandomCloudlets(workload.CloudletConfig{
		Count: 8, MinCapacity: 5, MaxCapacity: 10, MaxReliability: 0.999, K: 1.05}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	n := &core.Network{Catalog: workload.DefaultCatalog(), Cloudlets: cloudlets}
	reqs, err := workload.GenerateTrace(workload.TraceConfig{
		Requests: requests, Horizon: window, MinDuration: 1, MaxDuration: 10,
		MinRequirement: 0.90, MaxRequirement: 0.95, MaxPaymentRate: 10, H: 10}, n.Catalog, rng)
	if err != nil {
		tb.Fatal(err)
	}
	caps := make([]int, len(cloudlets))
	for j, c := range cloudlets {
		caps[j] = c.Capacity
	}
	return n, caps, reqs
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

// TestProposeRoomFirstMatchesTraced: an untraced Propose skips a cloudlet
// without room for one instance before it works out how many the request
// needs; a traced one works out N first, because the trace records it. On a
// saturated stream — 256 requests to a slot until the ledger admits about
// one in fifty, the benchmark's frame-onsite-saturated — the two orders
// decide every request alike: placement, instances, declined or not. The
// twins share the ledger, read through a Reader loaded as the engine loads
// it, and commit in step, so they price alike too.
func TestProposeRoomFirstMatchesTraced(t *testing.T) {
	const window, perSlot = 64, 256
	n, caps, reqs := drawInstance(t, 21, window*perSlot, window)
	led, err := timeslot.New(caps, window)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewStore(1) // samples every request
	plain, err := NewScheduler(n, window, WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := NewScheduler(n, window, WithCapacityEnforcement(), WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	view, admitted := led.NewReader(), 0
	for i, r := range reqs {
		// The slot the request's position in the stream gives it, as the
		// benchmark stamps arrivals; durations are cut at the horizon.
		r.Arrival = 1 + i/perSlot
		r.Duration = min(r.Duration, window-r.Arrival+1)
		view.Load(r.Arrival, r.Duration)
		got, ok := plain.Propose(r, view)
		want, wantOK := traced.Propose(r, view)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d %+v: untraced Propose = (%+v, %v), traced = (%+v, %v)", i, r, got, ok, want, wantOK)
		}
		if !ok {
			continue
		}
		a := got.Assignments[0]
		if err := led.Reserve(a.Cloudlet, r.Arrival, r.Duration, a.Instances*n.Catalog[r.VNF].Demand); err != nil {
			t.Fatal(err)
		}
		plain.Commit(r, got)
		traced.Commit(r, want)
		admitted++
	}
	t.Logf("admitted %d of %d", admitted, len(reqs))
	if ratio := float64(admitted) / float64(len(reqs)); ratio < 0.005 || ratio > 0.05 {
		t.Fatalf("admitted %d of %d (%.3f): not the saturated regime (about 0.02)", admitted, len(reqs), ratio)
	}
	if got := rec.Stats().Recorded; got != uint64(len(reqs)) {
		t.Fatalf("the traced twin recorded %d of %d proposals", got, len(reqs))
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
