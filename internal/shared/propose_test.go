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
	n, led, reqs := benchInputs(tb, window, 10)
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

// benchInputs draws the network, an empty rolling ledger over it and a
// request pool with durations up to maxDuration, as the benchmark's
// workloads are drawn.
func benchInputs(tb testing.TB, window, maxDuration int) (*core.Network, *timeslot.Ledger, []core.Request) {
	tb.Helper()
	rng := rand.New(rand.NewSource(16))
	cloudlets, err := workload.RandomCloudlets(workload.CloudletConfig{
		Count: 8, MinCapacity: 5, MaxCapacity: 10, MaxReliability: 0.999, K: 1.05}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	n := &core.Network{Catalog: workload.DefaultCatalog(), Cloudlets: cloudlets}
	reqs, err := workload.GenerateTrace(workload.TraceConfig{
		Requests: 4096, Horizon: window, MinDuration: 1, MaxDuration: maxDuration,
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
	return n, led, reqs
}

var benchPlacement core.Placement

// BenchmarkPropose is the read-only half of a decision against the steady
// state, read as serve.Engine reads it: one Reader.Load of the request's
// window, then Propose on the copy. Propose changes nothing, so every
// iteration sees the same prices, ledger and groups; and since nothing
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

// churnRig is the regime of the benchmark's frame-shared-churn workload
// without the wire and the engine around it: a rolling 64-slot window, 8
// requests per slot with durations 1–3, every admission booked in ledger
// and pool, every slot ended by the expiry releases and the window advance.
// Unlike the frozen state of BenchmarkPropose it reaches Commit, group
// retirement, window aging and the Pool.
type churnRig struct {
	tb   testing.TB
	net  *core.Network
	s    *Scheduler
	led  *timeslot.Ledger
	pool *timeslot.Pool
	view *timeslot.Reader
	reqs []core.Request
	slot int // the clock
	sent int // requests decided so far
	// expiring[t%len] holds the admissions whose window ends at slot t.
	expiring [churnMaxDuration][]booking
}

const (
	churnWindow      = 64
	churnPerSlot     = 8
	churnMaxDuration = 3
)

func newChurnRig(tb testing.TB) *churnRig {
	tb.Helper()
	n, led, reqs := benchInputs(tb, churnWindow, churnMaxDuration)
	s, err := NewScheduler(n, churnWindow)
	if err != nil {
		tb.Fatal(err)
	}
	return &churnRig{tb: tb, net: n, s: s, led: led, pool: timeslot.NewPool(led),
		view: led.NewReader(), reqs: reqs, slot: 1}
}

// step decides one slot's requests, then ticks the clock as serve.Engine
// does: release what ended, advance the ledger towards the clock and the
// scheduler to the base the ledger reached. It returns the number admitted.
func (c *churnRig) step() (admitted int) {
	for i := 0; i < churnPerSlot; i++ {
		req := c.reqs[c.sent%len(c.reqs)]
		c.sent++
		req.ID, req.Arrival = c.sent, c.slot
		c.view.Load(req.Arrival, req.Duration)
		p, ok := c.s.Decide(req, c.view)
		if !ok {
			continue
		}
		admitted++
		a, b, d := p.Assignments[0].Cloudlet, p.Backup, c.net.Catalog[req.VNF].Demand
		if ok, err := c.led.ReserveWindow(a, req.Arrival, req.Duration, d); !ok || err != nil {
			c.tb.Fatalf("request %+v: primary refused (%v)", req, err)
		}
		if err := c.pool.Acquire(b.Group, b.Cloudlet, req.Arrival, req.Duration, d); err != nil {
			c.tb.Fatalf("request %+v: backup: %v", req, err)
		}
		cell := &c.expiring[req.End()%churnMaxDuration]
		*cell = append(*cell, booking{req, a, b.Cloudlet, b.Group})
	}
	cell := &c.expiring[c.slot%churnMaxDuration]
	for _, b := range *cell {
		d := c.net.Catalog[b.req.VNF].Demand
		if err := c.led.Release(b.primary, b.req.Arrival, b.req.Duration, d); err != nil {
			c.tb.Fatal(err)
		}
		if err := c.pool.Release(b.group, b.req.Arrival, b.req.Duration); err != nil {
			c.tb.Fatal(err)
		}
	}
	*cell = (*cell)[:0]
	c.slot++
	if err := c.led.Advance(c.slot); err != nil {
		c.tb.Fatal(err)
	}
	c.s.AdvanceWindow(c.led.Base())
	return admitted
}

// BenchmarkDecideChurn is one whole decision of the churn regime per
// operation, its share of the slot's tick included.
func BenchmarkDecideChurn(b *testing.B) {
	c := newChurnRig(b)
	for c.slot <= 2*churnWindow {
		c.step()
	}
	admitted, decided := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for ; decided < b.N; decided += churnPerSlot {
		admitted += c.step()
	}
	b.ReportMetric(float64(admitted)/float64(decided), "admitted/op")
}

// TestDecideChurnAllocations pins the steady state of the churn regime to
// one allocation per admission, the placement Propose returns: groups,
// refcount rings, end-slot cells and the Pool's groups are all recycled.
func TestDecideChurnAllocations(t *testing.T) {
	c := newChurnRig(t)
	// Two passes over the request pool bring every recycled slice to the
	// size it keeps.
	for c.sent < 2*len(c.reqs) {
		c.step()
	}
	// AllocsPerRun calls the function twice, counting the second call.
	admitted := 0
	allocs := testing.AllocsPerRun(1, func() {
		admitted = 0
		for i := 0; i < churnWindow; i++ {
			admitted += c.step()
		}
	})
	if admitted < churnWindow*churnPerSlot/2 {
		t.Fatalf("%d of a lap's %d requests admitted: not the churn regime", admitted, churnWindow*churnPerSlot)
	}
	if allocs != float64(admitted) {
		t.Errorf("a steady lap allocates %v times for %d admissions, want one each", allocs, admitted)
	}
}
