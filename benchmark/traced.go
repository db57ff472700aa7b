package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"revnf/internal/core"
	"revnf/internal/serve"
	"revnf/internal/timeslot"
	"revnf/internal/trace"
	"revnf/internal/wire"
)

// pdScheduler is what every primal-dual scheduler the workloads run
// offers: the two-phase protocol plus the two optional interfaces the
// engine discovers by type assertion. The decorator must keep offering
// all three or the engine would quietly run a different configuration.
type pdScheduler interface {
	core.TwoPhaseScheduler
	core.WindowAdvancer
	core.LambdaReader
}

// timedScheduler puts a span around each state-touching scheduler call.
// Name, Scheme, ConcurrentPropose and Lambda are forwarded unchanged by
// embedding.
type timedScheduler struct {
	pdScheduler
	tr *tracer
}

// Propose writes to the tracer, which is observability and feeds back into
// no decision (the carve-out trace.Recorder has), and the traced pass is
// one goroutine, so the writes do not race.
func (s *timedScheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.tr.begin(spPropose) //lint:allow purepropose
	p, ok := s.pdScheduler.Propose(req, view)
	s.tr.end() //lint:allow purepropose
	return p, ok
}

func (s *timedScheduler) Commit(req core.Request, p core.Placement) {
	s.tr.begin(spCommit)
	s.pdScheduler.Commit(req, p)
	s.tr.end()
}

func (s *timedScheduler) Abort(req core.Request, p core.Placement) {
	s.tr.begin(spAbort)
	s.pdScheduler.Abort(req, p)
	s.tr.end()
}

func (s *timedScheduler) Decide(req core.Request, view core.CapacityView) (core.Placement, bool) {
	s.tr.begin(spDecide)
	p, ok := s.pdScheduler.Decide(req, view)
	s.tr.end()
	return p, ok
}

func (s *timedScheduler) AdvanceWindow(base int) {
	s.tr.begin(spAdvanceWindow)
	s.pdScheduler.AdvanceWindow(base)
	s.tr.end()
}

// timedRecorder puts a span around each recorder call.
type timedRecorder struct {
	inner trace.Recorder
	tr    *tracer
}

func (r *timedRecorder) Sample(id int) bool {
	r.tr.begin(spSample)
	ok := r.inner.Sample(id)
	r.tr.end()
	return ok
}

func (r *timedRecorder) Record(t *trace.DecisionTrace) {
	r.tr.begin(spRecord)
	r.inner.Record(t)
	r.tr.end()
}

// ledgerOp is one step of the traced pass as the ledger saw it: a request
// (with its footprint when admitted) or, with duration 0, a tick.
type ledgerOp struct {
	arrival, duration int
	demand            int
	assignments       []core.Assignment
	backup            *core.SharedBackup
}

// replayOpts selects one variant of the replay.
type replayOpts struct {
	requests int
	batch    int
	// tr is nil for the undecorated pass.
	tr *tracer
	// rec is the recorder behind the decorator; nil is the no-op recorder
	// the untraced phases run with.
	rec trace.Recorder
	// ledger keeps what the ledger saw, window fill included, for
	// replayLedger.
	ledger bool
}

type replayResult struct {
	tally
	elapsed int64
	// digest folds every decision (id, admitted) in order.
	digest  uint64
	workers int
	ticks   int
	expired int
	// bytes counts request and decision bytes on the wire.
	bytes  int
	ops    []ledgerOp
	checks []string
}

// replay plays the StreamServer pipeline on one goroutine, without
// sockets: decode a batch from its wire bytes, Engine.SubmitBatch, encode
// the decisions, tick the clock once per K requests — the same calls in
// the same order as serve/stream.go, each inside a span. The engine is a
// fresh one, assembled like the rig's and filled the same way; with a
// tracer its scheduler and recorder are the timing decorators.
func replay(r *rig, o replayOpts) (*replayResult, error) {
	sp := r.sp
	engine, err := newEngine(sp, r.network, o.tr, o.rec)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = engine.Shutdown(context.Background()) // nothing is in flight on one goroutine
	}()
	res := &replayResult{workers: engine.Workers()}
	ctx := context.Background()
	var (
		in     []byte
		out    []byte
		wr     wire.Request
		reqs   = make([]serve.AdmissionRequest, o.batch)
		outs   = make([]serve.AdmissionResult, o.batch)
		rd     = bytes.NewReader(nil)
		fr     = wire.NewFrameReader(rd)
		seq    = 0
		ticked = 0
	)
	fill := horizon * sp.PerSlot
	total := fill + o.requests
	if o.ledger {
		res.ops = make([]ledgerOp, 0, total+total/sp.PerSlot)
	}
	for seq < total {
		if seq == fill {
			// The window is full: measurement starts here.
			o.tr.reset(o.requests)
			res.tally = tally{}
			res.bytes, res.ticks, res.expired = 0, 0, 0
			res.elapsed = since()
		}
		n := o.batch
		if seq < fill && seq+n > fill {
			n = fill - seq
		}
		if seq+n > total {
			n = total - seq
		}
		in = in[:0]
		for i := 0; i < n; i++ {
			in = stamp(in, sp.Proto, r.enc[(seq+i)%poolSize], 1+(seq+i)/sp.PerSlot)
		}
		res.bytes += len(in)
		o.tr.nextRequest()

		o.tr.begin(spBatch)
		o.tr.begin(spDecode)
		if sp.Proto == "ndjson" {
			rest := in
			for i := 0; i < n; i++ {
				nl := bytes.IndexByte(rest, '\n')
				if err := wire.DecodeNDJSONRequest(rest[:nl+1], &wr); err != nil {
					return nil, fmt.Errorf("replay decode: %w", err)
				}
				rest = rest[nl+1:]
				reqs[i] = admissionRequest(&wr)
			}
		} else {
			rd.Reset(in)
			for i := 0; i < n; i++ {
				_, payload, err := fr.Next()
				if err == nil {
					err = wire.DecodeRequest(payload, &wr)
				}
				if err != nil {
					return nil, fmt.Errorf("replay decode: %w", err)
				}
				reqs[i] = admissionRequest(&wr)
			}
		}
		o.tr.end()

		o.tr.begin(spSubmit)
		err := engine.SubmitBatch(ctx, reqs[:n], outs[:n])
		o.tr.end()
		if err != nil {
			return nil, fmt.Errorf("replay submit: %w", err)
		}

		o.tr.begin(spEncode)
		out = out[:0]
		for i := range outs[:n] {
			a := &outs[i]
			d := wire.Decision{ID: uint64(a.ID), Slot: a.Slot, Admitted: a.Admitted, Reason: wire.CodeForReason(a.Reason)}
			if sp.Proto == "ndjson" {
				out = wire.AppendNDJSONDecision(out, &d)
			} else {
				out = wire.AppendDecisionFrame(out, &d)
			}
		}
		o.tr.end()
		res.bytes += len(out)

		for i := range outs[:n] {
			a := &outs[i]
			req := &r.pool[(seq+i)%poolSize]
			res.Attempted++
			res.digest = res.digest*1099511628211 ^ uint64(a.ID)<<1
			switch {
			case a.Admitted:
				res.digest ^= 1
				res.Succeeded++
				res.Admitted++
				res.Revenue += req.Payment
			case a.Reason == serve.ReasonDeclined:
				res.Succeeded++
			default:
				res.Failed++
			}
			if o.ledger {
				op := ledgerOp{arrival: 1 + (seq+i)/sp.PerSlot, duration: req.Duration}
				if a.Admitted {
					op.demand = r.network.Catalog[req.VNF].Demand
					op.assignments, op.backup = a.Placement.Assignments, a.Placement.Backup
				}
				res.ops = append(res.ops, op)
			}
		}
		seq += n

		for ; ticked < seq/sp.PerSlot; ticked++ {
			o.tr.begin(spTick)
			rep := engine.Tick()
			o.tr.end()
			res.ticks++
			res.expired += rep.Expired
			if o.ledger {
				res.ops = append(res.ops, ledgerOp{})
			}
		}
		o.tr.end()
	}
	res.elapsed = since() - res.elapsed
	o.tr.freeze()

	for i := 0; i < horizon+sp.MaxDur; i++ {
		engine.Tick()
	}
	if st := engine.Stats(); st.ActivePlacements != 0 {
		res.checks = append(res.checks, fmt.Sprintf("replay drain: %d placements still active", st.ActivePlacements))
	}
	return res, nil
}

// admissionRequest is the field-by-field copy serve/stream.go makes.
func admissionRequest(wr *wire.Request) serve.AdmissionRequest {
	return serve.AdmissionRequest{VNF: wr.VNF, Reliability: wr.Reliability, Arrival: wr.Arrival,
		Duration: wr.Duration, Payment: wr.Payment, Scheme: wr.Scheme}
}

// ledgerReplay repeats, against a fresh rolling ledger and pool, what the
// traced pass's engine did to its own (which is private): the residual
// reads a proposal makes, the reservation of each admitted footprint, the
// releases at expiry and the window advance at each tick. The state is the
// same at every step, so no reservation may be refused.
type ledgerReplay struct {
	led  *timeslot.Ledger
	pool *timeslot.Pool
	tr   *tracer
	// expiring[s] lists the admitted ops whose window ends at slot s-1;
	// liveFrom[s] counts live reservations that start at slot s and pin
	// the window base (serve.Engine.advanceWindowLocked).
	expiring   map[int][]*ledgerOp
	liveFrom   map[int]int
	slot, base int
}

func replayLedger(network *core.Network, ops []ledgerOp, tr *tracer) error {
	caps := make([]int, len(network.Cloudlets))
	for j, cl := range network.Cloudlets {
		caps[j] = cl.Capacity
	}
	led, err := timeslot.NewRolling(caps, horizon)
	if err != nil {
		return err
	}
	lr := &ledgerReplay{led: led, pool: timeslot.NewPool(led), tr: tr,
		expiring: map[int][]*ledgerOp{}, liveFrom: map[int]int{}, slot: 1, base: 1}
	for i := range ops {
		op := &ops[i]
		tr.nextRequest()
		tr.begin(spLedgerReplay)
		if op.duration == 0 {
			err = lr.tick()
		} else {
			err = lr.request(op, len(caps))
		}
		tr.end()
		if err != nil {
			return fmt.Errorf("ledger replay: %w", err)
		}
	}
	return nil
}

// tick expires what ends with the old slot and advances the window base
// as far as the oldest live reservation allows.
func (lr *ledgerReplay) tick() error {
	lr.slot++
	for _, e := range lr.expiring[lr.slot] {
		for _, a := range e.assignments {
			lr.tr.begin(spRelease)
			err := lr.led.Release(a.Cloudlet, e.arrival, e.duration, a.Units(e.demand))
			lr.tr.end()
			if err != nil {
				return err
			}
		}
		if b := e.backup; b != nil {
			lr.tr.begin(spPoolRelease)
			err := lr.pool.Release(b.Group, e.arrival, e.duration)
			lr.tr.end()
			if err != nil {
				return err
			}
		}
		lr.liveFrom[e.arrival]--
	}
	delete(lr.expiring, lr.slot)
	newBase := lr.base
	for newBase < lr.slot && lr.liveFrom[newBase] == 0 {
		delete(lr.liveFrom, newBase)
		newBase++
	}
	if newBase == lr.base {
		return nil
	}
	lr.base = newBase
	lr.tr.begin(spAdvance)
	err := lr.led.Advance(newBase)
	lr.tr.end()
	return err
}

// request makes the reads of one proposal and, for an admitted request,
// reserves its footprint until tick releases it.
func (lr *ledgerReplay) request(op *ledgerOp, cloudlets int) error {
	for j := 0; j < cloudlets; j++ {
		lr.tr.begin(spResidualWindow)
		_ = lr.led.ResidualWindow(j, op.arrival, op.duration)
		lr.tr.end()
	}
	for _, a := range op.assignments {
		lr.tr.begin(spReserveWindow)
		ok, err := lr.led.ReserveWindow(a.Cloudlet, op.arrival, op.duration, a.Units(op.demand))
		lr.tr.end()
		if err != nil || !ok {
			// The replay's ledger is discarded with the error; there is
			// nothing to roll back. //lint:allow ledgerapi
			return fmt.Errorf("reservation at slot %d refused (%v)", op.arrival, err)
		}
	}
	if b := op.backup; b != nil {
		lr.tr.begin(spPoolAcquire)
		err := lr.pool.Acquire(b.Group, b.Cloudlet, op.arrival, op.duration, op.demand)
		lr.tr.end()
		if err != nil {
			return err // as above //lint:allow ledgerapi
		}
	}
	if len(op.assignments) > 0 {
		lr.expiring[op.arrival+op.duration] = append(lr.expiring[op.arrival+op.duration], op)
		lr.liveFrom[op.arrival]++
	}
	// The footprint stays reserved until tick releases it at expiry, as in
	// the engine. //lint:allow ledgerapi
	return nil
}

// traceFile is what the traced pass writes at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Requests int    `json:"requests"`
	// Passes holds the per-name aggregates of every replay variant. The
	// unit is nanoseconds except in "allocs", where it is heap objects.
	Passes map[string]map[string]spanAgg `json:"passes"`
	// Spans holds, for the main pass and the ledger replay, every span of
	// one request in fullEvery.
	Spans map[string][]spanRecord `json:"spans"`
}

// tracedPhase is phase 4: the replay variants, the ledger replay and the
// per-layer metrics they and the loaded run's counters give.
func tracedPhase(r *rig, res *result, seconds float64, load loadStats) error {
	stats, rtt := load.stats, load.rtt
	sp := r.sp
	n := scaled(tracedRequests, seconds, 1, 256)
	clock := since

	main := newTracer(clock)
	timed, err := replay(r, replayOpts{requests: n, batch: 16, tr: main, ledger: true})
	if err != nil {
		return err
	}
	plain, err := replay(r, replayOpts{requests: n, batch: 16})
	if err != nil {
		return err
	}
	b1, b256 := newTracer(clock), newTracer(clock)
	if _, err := replay(r, replayOpts{requests: n / 4, batch: 1, tr: b1}); err != nil {
		return err
	}
	if _, err := replay(r, replayOpts{requests: n / 4, batch: 256, tr: b256}); err != nil {
		return err
	}
	allocs := newTracer(allocMeter())
	if _, err := replay(r, replayOpts{requests: n / 8, batch: 16, tr: allocs}); err != nil {
		return err
	}
	recorded := newTracer(clock)
	if _, err := replay(r, replayOpts{requests: n / 8, batch: 16, tr: recorded,
		rec: trace.NewSampling(trace.NewStore(4096), 64)}); err != nil {
		return err
	}
	ledger := newTracer(clock)
	if err := replayLedger(r.network, timed.ops, ledger); err != nil {
		res.Checks = append(res.Checks, err.Error())
	}

	// Checks: the decorators change nothing, the spans reconcile.
	res.Phases["traced"] = timed.tally
	res.Checks = append(res.Checks, timed.checks...)
	if timed.Failed > 0 {
		res.Checks = append(res.Checks, fmt.Sprintf("traced pass: %d decisions failed", timed.Failed))
	}
	if timed.digest != plain.digest || timed.workers != plain.workers {
		res.Checks = append(res.Checks, "traced pass: the decorated engine decided differently from the undecorated one")
	}
	if self, wall := float64(main.selfSum()), float64(timed.elapsed); self < 0.9*wall || self > 1.1*wall {
		res.Checks = append(res.Checks, fmt.Sprintf("traced pass: self times sum to %.0f ns, the pass took %.0f ns", self, wall))
	}
	for _, t := range []*tracer{main, ledger} {
		for i, a := range t.agg {
			if a.Self < 0 {
				res.Checks = append(res.Checks, fmt.Sprintf("traced pass: %s has negative self time", spanNames[i]))
			}
		}
	}

	// Per-layer metrics.
	root := float64(main.agg[spBatch].Total)
	schedSelf := 0.0
	for _, name := range []spanName{spPropose, spCommit, spAbort, spDecide, spAdvanceWindow} {
		schedSelf += float64(main.agg[name].Self)
	}
	// On the serial path (pd-shared) the engine calls Decide, which is a
	// proposal and, when it admits, its commit in one.
	proposes := main.agg[spPropose].Count + main.agg[spDecide].Count
	commits := main.agg[spCommit].Count
	if main.agg[spDecide].Count > 0 {
		commits = int64(timed.Admitted)
	}
	allocProposes := allocs.agg[spPropose].Count + allocs.agg[spDecide].Count
	decided := float64(stats.Admitted + stats.RejectedTotal())
	reserves := float64(stats.Admitted + stats.ConflictRetries)
	decodeNs, encodeNs := main.selfPerRequest(spDecode), main.selfPerRequest(spEncode)
	batch1Ns := b1.totalPerRequest(spSubmit)
	rtt1 := rtt.rtt.quantile(0.5) / 1e3

	pl := res.PerLayer
	pl["wire.decode_ns"] = metric{decodeNs, "ns"}
	pl["wire.encode_ns"] = metric{encodeNs, "ns"}
	pl["wire.decode_allocs"] = metric{allocs.selfPerRequest(spDecode), "count"}
	pl["wire.encode_allocs"] = metric{allocs.selfPerRequest(spEncode), "count"}
	pl["wire.bytes_per_req"] = metric{float64(timed.bytes) / float64(timed.Attempted), "B"}
	pl["wire.share"] = metric{float64(main.agg[spDecode].Self+main.agg[spEncode].Self) / root, "ratio"}
	pl["serve.stream.batch_mean"] = metric{load.batchSum / load.batchCount, "count"}
	pl["serve.stream.rtt1_us"] = metric{rtt1, "us"}
	pl["serve.stream.remainder_us"] = metric{rtt1 - (decodeNs+batch1Ns+encodeNs)/1e3, "us"}
	pl["serve.stream.errors"] = metric{load.streamErrors, "count"}
	pl["serve.engine.batch1_ns"] = metric{batch1Ns, "ns"}
	pl["serve.engine.batch16_ns"] = metric{main.totalPerRequest(spSubmit), "ns"}
	pl["serve.engine.batch256_ns"] = metric{b256.totalPerRequest(spSubmit), "ns"}
	pl["serve.engine.self_ns"] = metric{main.selfPerRequest(spSubmit), "ns"}
	pl["serve.engine.allocs_per_req"] = metric{allocs.totalPerRequest(spSubmit), "count"}
	pl["serve.engine.conflict_per_kreq"] = metric{1000 * float64(stats.ConflictRetries) / decided, "count"}
	pl["serve.engine.queue_full"] = metric{float64(stats.Rejections[serve.ReasonQueueFull]), "count"}
	pl["serve.engine.queue_depth_max"] = metric{float64(load.queueDepthMax), "count"}
	pl["serve.engine.admit_ratio"] = metric{timed.admitRatio(), "ratio"}
	pl["serve.engine.effective_workers"] = metric{float64(stats.Workers), "count"}
	pl["serve.engine.tick_ns"] = metric{main.perCall(spTick), "ns"}
	pl["serve.engine.tick_share"] = metric{float64(main.agg[spTick].Self) / root, "ratio"}
	pl["serve.engine.expired_per_tick"] = metric{float64(timed.expired) / float64(timed.ticks), "count"}
	pl["sched.propose_ns"] = metric{main.perCall(spPropose), "ns"}
	pl["sched.commit_ns"] = metric{main.perCall(spCommit), "ns"}
	pl["sched.decide_ns"] = metric{main.perCall(spDecide), "ns"}
	pl["sched.advance_ns"] = metric{main.perCall(spAdvanceWindow), "ns"}
	pl["sched.abort_count"] = metric{float64(main.agg[spAbort].Count), "count"}
	pl["sched.commit_ratio"] = metric{float64(commits) / float64(proposes), "ratio"}
	pl["sched.allocs_per_propose"] = metric{float64(allocs.agg[spPropose].Total+allocs.agg[spDecide].Total) / float64(allocProposes), "count"}
	pl["sched.share"] = metric{schedSelf / root, "ratio"}
	pl["timeslot.reserve_ns"] = metric{ledger.perCall(spReserveWindow), "ns"}
	pl["timeslot.release_ns"] = metric{ledger.perCall(spRelease), "ns"}
	pl["timeslot.residual_window_ns"] = metric{ledger.perCall(spResidualWindow), "ns"}
	pl["timeslot.advance_ns"] = metric{ledger.perCall(spAdvance), "ns"}
	pl["timeslot.pool_acquire_ns"] = metric{ledger.perCall(spPoolAcquire), "ns"}
	pl["timeslot.pool_release_ns"] = metric{ledger.perCall(spPoolRelease), "ns"}
	pl["timeslot.refused_ratio"] = metric{float64(stats.ConflictRetries) / reserves, "ratio"}
	pl["trace.sample_ns"] = metric{main.perCall(spSample), "ns"}
	pl["trace.record_ns"] = metric{recorded.perCall(spRecord), "ns"}
	pl["metrics.scrape_ms"] = metric{load.scrapeMs, "ms"}
	pl["workload.instance_ms"] = metric{r.instanceMs, "ms"}
	pl["lat_p99_us"] = metric{res.LatP99Us, "us"}
	pl["bench.gen_late_p99_us"] = metric{res.GenLateP99Us, "us"}
	pl["bench.trace_overhead_ratio"] = metric{float64(timed.elapsed) / float64(plain.elapsed), "ratio"}
	res.Samples["traced_requests"] = timed.Attempted
	res.Samples["rtt1"] = rtt.Attempted

	return writeJSON(filepath.Join(outDir, "trace-"+sp.Name+".json"), traceFile{
		Workload: sp.Name,
		Requests: timed.Attempted,
		Passes: map[string]map[string]spanAgg{
			"batch16":       main.aggregates(),
			"batch1":        b1.aggregates(),
			"batch256":      b256.aggregates(),
			"allocs":        allocs.aggregates(),
			"recorded":      recorded.aggregates(),
			"ledger_replay": ledger.aggregates(),
		},
		Spans: map[string][]spanRecord{"batch16": main.full, "ledger_replay": ledger.full},
	})
}
