package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"time"

	"revnf/internal/core"
	"revnf/internal/serve"
	"revnf/internal/wire"
)

// minRecv is the decision count of the connection that is furthest behind.
func (r *rig) minRecv() int64 {
	m := r.clients[0].recv.Load()
	for _, c := range r.clients[1:] {
		if v := c.recv.Load(); v < m {
			m = v
		}
	}
	return m
}

// phase is what one driven phase measured, or all the slices of one phase
// added up.
type phase struct {
	tally
	// rates (closed loop) holds the decisions per second of each sub-window
	// and rtt the time from each chunk's write to its last decision.
	rates []float64
	rtt   hist
	// p50s and p99s (open loop) hold the median and the 99th percentile, in
	// microseconds, of each sub-window of p50Window and p99Window latencies;
	// late is how far behind its schedule the generator wrote each request.
	p50s, p99s []float64
	late       hist
}

func (p *phase) add(o *phase) {
	p.tally.add(o.tally)
	p.rates = append(p.rates, o.rates...)
	p.rtt.add(&o.rtt)
	p.p50s = append(p.p50s, o.p50s...)
	p.p99s = append(p.p99s, o.p99s...)
	p.late.add(&o.late)
}

// windowQuantiles cuts lat into consecutive windows of size latencies (what
// is left over at the end is dropped; fewer than one window make one) and
// returns each window's q-quantile in microseconds. lat is in nanoseconds.
func windowQuantiles(lat []uint32, size int, q float64) []float64 {
	if size = min(size, len(lat)); size == 0 {
		return nil
	}
	out := make([]float64, 0, len(lat)/size)
	w := make([]uint32, size)
	for k := 0; k+size <= len(lat); k += size {
		copy(w, lat[k:k+size])
		slices.Sort(w)
		out = append(out, float64(w[int(q*float64(size-1)+0.5)])/1e3)
	}
	return out
}

// Every request of both loops asks for an explicit slot, 1 + (its sequence
// index)/K, so exactly K requests land in each slot however connections,
// batches and ticks interleave: the admit ratio and the work per request
// do not depend on how fast the code under test is. (With "arrival 0 =
// now" and a window of requests in flight, a whole batch is decided in one
// slot and a burst of ticks follows; which slot a request gets then
// depends on scheduling.) The clock follows the connection that is
// furthest behind, clock = 1 + conns × min(decided)/K, so no undecided
// request is ever stale. Both loops keep at most pipelineDepth requests in
// flight, so the newest request sent is at most conns × pipelineDepth
// sequence numbers past the oldest undecided one, which keeps every
// reservation inside the 64-slot ledger: 2 × 128/8 + 1 slots ahead of the
// clock, plus a duration of 10, plus a window base up to 10 slots behind
// the clock.

// closedLoop sends n requests (rounded down to a multiple of the
// connection count) as callers that wait for a reply before sending the
// next: each connection keeps depth chunks of chunk requests in flight,
// and the next chunk goes out when the oldest one's decisions are all in.
// One goroutine serves the connections in turn, so the order of writes and
// reads — and with it the batches the server forms — is the same on every
// run; while it reads one connection's decisions the server works on the
// other's. The phase is cut into nWin equal sub-windows by decision count.
func (r *rig) closedLoop(n, chunk, depth, nWin int) *phase {
	conns := len(r.clients)
	per := n / conns
	n = per * conns
	ph := &phase{}
	ph.Attempted = n
	// marks[w] is when the (w+1)-th equal share of the decisions had
	// arrived: a decision closes a sub-window when it moves the integer
	// share.
	marks := make([]int64, nWin)
	// sentAt[c] is a ring of the write times of connection c's chunks in
	// flight.
	sentAt := make([][]int64, conns)
	for ci, c := range r.clients {
		sentAt[ci] = make([]int64, depth)
		_ = c.conn.SetDeadline(time.Now().Add(ioDeadline)) // a failed deadline only loses the hang guard
	}
	var scratch []byte
	var d wire.Decision
	start := since()
	send := func(ci, k int) {
		c := r.clients[ci]
		scratch = scratch[:0]
		for i := 0; i < chunk && k+i < per; i++ {
			seq := seqIndex(c.id, c.sent)
			scratch = stamp(scratch, c.proto, r.enc[seq%poolSize], 1+seq/r.sp.PerSlot)
			c.sent++
		}
		sentAt[ci][k/chunk%depth] = since()
		// A write error surfaces below as missing decisions.
		_, _ = c.conn.Write(scratch)
	}
	for k := 0; k < depth*chunk && k < per; k += chunk {
		for ci := range r.clients {
			send(ci, k)
		}
	}
	decided := 0
	for k := 0; k < per; k += chunk {
		for ci, c := range r.clients {
			m := min(chunk, per-k)
			for i := 0; i < m; i++ {
				if err := c.readDecision(&d); err != nil {
					// Missing decisions: everything not yet read failed.
					ph.Failed += n - decided - i
					return ph
				}
				c.account(&ph.tally, &d, r.pool)
			}
			ph.rtt.observe(since() - sentAt[ci][k/chunk%depth])
			r.tickTo(int64(conns) * r.minRecv() / int64(r.sp.PerSlot))
			for w := decided * nWin / n; w < (decided+m)*nWin/n; w++ {
				marks[w] = since()
			}
			decided += m
			if next := k + depth*chunk; next < per {
				send(ci, next)
			}
		}
	}
	ph.rates = make([]float64, nWin)
	for w, m := range marks {
		ph.rates[w] = float64(n) / float64(nWin) / (float64(m-start) / 1e9)
		start = m
	}
	return ph
}

// openLoop offers n requests at a fixed rate, whatever the server does:
// request i is due at start + i/rate and is timed from that instant, so a
// stall charges every request it delays. One pacer (this goroutine) spins
// on the clock — this machine's timers are three orders of magnitude
// coarser than the send interval — and deals the requests to the
// connections in turn; one reader per connection takes the decisions. The
// in-flight window still applies: at rateRef it only binds after a stall of
// several milliseconds, and a request it holds back is still timed from
// when it was due.
func (r *rig) openLoop(n int, rate float64) *phase {
	conns := len(r.clients)
	per := n / conns
	n = per * conns
	perSlot := int64(r.sp.PerSlot)
	tokens := make(chan struct{}, pipelineDepth) // the in-flight window
	for k := 0; k < pipelineDepth; k++ {
		tokens <- struct{}{}
	}
	abort := make(chan struct{}) // closed by the first reader that loses its connection
	var abortOnce sync.Once
	ph := &phase{}
	// lat holds every request's latency in nanoseconds, in the order the
	// requests were due; one that a uint32 cannot hold reads as the largest.
	lat := make([]uint32, n)
	tallies := make([]tally, conns)
	interval := 1e9 / rate
	start := since()
	due := func(i int) int64 { return start + int64(float64(i)*interval) }

	var wg sync.WaitGroup
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			_ = c.conn.SetDeadline(time.Now().Add(ioDeadline)) // a failed deadline only loses the hang guard
			t := &tallies[ci]
			t.Attempted = per
			var d wire.Decision
			for k := 0; k < per; k++ {
				if err := c.readDecision(&d); err != nil {
					// Missing decisions: everything not yet read failed.
					t.Failed += per - k
					abortOnce.Do(func() { close(abort) })
					return
				}
				i := k*conns + ci
				lat[i] = uint32(min(max(since()-due(i), 0), math.MaxUint32))
				c.account(t, &d, r.pool)
				tokens <- struct{}{}
				r.tickTo(int64(conns) * r.minRecv() / perSlot)
			}
		}(ci, c)
	}

	// The pacer. A write error is not reported here: the connection's
	// reader sees the same broken connection and counts what is missing.
	var scratch []byte
	now := since()
pace:
	for j := 0; j < n; j++ {
		for now < due(j) {
			osYield()
			now = since()
		}
		select {
		case <-tokens:
		default:
			select {
			case <-tokens:
			case <-abort:
				break pace
			}
			now = since()
		}
		ph.late.observe(now - due(j))
		c := r.clients[j%conns]
		seq := seqIndex(c.id, c.sent)
		scratch = stamp(scratch[:0], c.proto, r.enc[seq%poolSize], 1+seq/r.sp.PerSlot)
		_, _ = c.conn.Write(scratch)
		c.sent++
	}
	wg.Wait()
	for _, t := range tallies {
		ph.tally.add(t)
	}
	ph.p50s = windowQuantiles(lat, p50Window, 0.50)
	ph.p99s = windowQuantiles(lat, p99Window, 0.99)
	return ph
}

// checkBooks compares the client's books with the engine's after the
// measured phases: revenue must match, and 1 in 1000 admitted placements
// is fetched back and re-validated against the request it answered.
func (r *rig) checkBooks(client tally) []string {
	var fails []string
	st := r.engine.Stats()
	if !core.FloatEqTol(client.Revenue, st.Revenue, 1e-9*math.Max(1, st.Revenue)) {
		fails = append(fails, fmt.Sprintf("revenue: client saw %.6f, engine booked %.6f", client.Revenue, st.Revenue))
	}
	if uint64(client.Admitted) != st.Admitted {
		fails = append(fails, fmt.Sprintf("admitted: client saw %d, engine booked %d", client.Admitted, st.Admitted))
	}
	for _, s := range client.samples {
		rec, ok := r.engine.Placement(s.id)
		if !ok {
			fails = append(fails, fmt.Sprintf("placement %d: not found", s.id))
			continue
		}
		want := r.pool[s.poolIdx]
		if rec.Request.VNF != want.VNF || rec.Request.Duration != want.Duration ||
			!core.FloatEq(rec.Request.Payment, want.Payment) {
			fails = append(fails, fmt.Sprintf("placement %d: answers a different request than the one sent", s.id))
			continue
		}
		if err := rec.Placement.Validate(r.network, rec.Request); err != nil {
			fails = append(fails, fmt.Sprintf("placement %d: %v", s.id, err))
			continue
		}
		if got := rec.Placement.Availability(r.network, rec.Request); got+1e-12 < rec.Request.Reliability {
			fails = append(fails, fmt.Sprintf("placement %d: availability %v below R=%v", s.id, got, rec.Request.Reliability))
		}
	}
	return fails
}

// checkDrain ticks past the window and the longest duration and requires
// the ledger and the placement index to be empty again.
func (r *rig) checkDrain() []string {
	for i := 0; i < horizon+r.sp.MaxDur; i++ {
		r.engine.Tick()
	}
	var fails []string
	st := r.engine.Stats()
	if st.ActivePlacements != 0 {
		fails = append(fails, fmt.Sprintf("drain: %d placements still active", st.ActivePlacements))
	}
	for j, u := range st.CloudletUsed {
		if u != 0 {
			fails = append(fails, fmt.Sprintf("drain: cloudlet %d still holds %d units", j, u))
		}
	}
	return fails
}

// heapInUseMB reads the runtime's HeapInuse: live objects plus the unused
// part of their spans. runtime/metrics does not stop the world.
func heapInUseMB() float64 {
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(heap)
	return float64(heap[0].Value.Uint64()+heap[1].Value.Uint64()) / (1 << 20)
}

// loadStats is what the loaded engine of phases 2 and 3 told: the ingest
// batches of the closed loop and the stream errors, both from /metrics
// renders on either side of each closed-loop slice, its counters at the end
// and, in a traced run, the deepest ingest queue and the median render time
// the sampler saw and the depth-1 ping-pong.
type loadStats struct {
	batchSum, batchCount float64
	streamErrors         float64
	stats                serve.Stats
	queueDepthMax        int
	scrapeMs             float64
	rtt                  *phase
}

// sampler watches the loaded engine five times a second. Engine.Stats and
// WriteMetrics take the engine mutex, which is why untraced runs, whose
// phases give the end-to-end metrics, run without it.
type sampler struct {
	stop          chan struct{}
	done          chan struct{}
	queueDepthMax int
	scrapes       []float64
}

func startSampler(r *rig) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			s.queueDepthMax = max(s.queueDepthMax, r.engine.Stats().QueueDepth)
			s.scrapes = append(s.scrapes, r.scrape().ms)
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the deepest queue and the median
// render time it saw.
func (s *sampler) finish() (queueDepthMax int, scrapeMs float64) {
	close(s.stop)
	<-s.done
	return s.queueDepthMax, median(s.scrapes)
}

// scrape is one /metrics render: how long it took and the stream-layer
// counters the engine exposes nowhere else.
type scrape struct {
	ms                   float64
	batchSum, batchCount float64
	streamErrors         float64
}

func (r *rig) scrape() scrape {
	var buf bytes.Buffer
	t0 := since()
	_ = r.engine.WriteMetrics(&buf) // a bytes.Buffer cannot fail
	sc := scrape{ms: float64(since()-t0) / 1e6}
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"revnfd_ingest_batch_size_sum ", &sc.batchSum},
		{"revnfd_ingest_batch_size_count ", &sc.batchCount},
		{"revnfd_stream_errors_total ", &sc.streamErrors},
	} {
		if at := bytes.Index(buf.Bytes(), []byte("\n"+f.name)); at >= 0 {
			line := buf.Bytes()[at+1+len(f.name):]
			if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
				line = line[:nl]
			}
			*f.dst, _ = strconv.ParseFloat(string(line), 64) // 0 when the family is missing or malformed
		}
	}
	return sc
}
