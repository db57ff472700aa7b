package main

import "runtime/metrics"

// spanName identifies a layer boundary the traced pass records. The names
// are the layer (module) and the public call timed there.
type spanName int

const (
	spBatch spanName = iota // root: one replayed batch, request id = batch number
	spDecode
	spSubmit
	spEncode
	spTick
	spPropose
	spCommit
	spAbort
	spDecide
	spAdvanceWindow
	spSample
	spRecord
	spLedgerReplay // root of the ledger replay
	spResidualWindow
	spReserveWindow
	spRelease
	spAdvance
	spPoolAcquire
	spPoolRelease
	numSpans
)

var spanNames = [numSpans]string{
	spBatch:          "bench.batch",
	spDecode:         "wire.decode",
	spSubmit:         "serve.engine.submit_batch",
	spEncode:         "wire.encode",
	spTick:           "serve.engine.tick",
	spPropose:        "sched.propose",
	spCommit:         "sched.commit",
	spAbort:          "sched.abort",
	spDecide:         "sched.decide",
	spAdvanceWindow:  "sched.advance_window",
	spSample:         "trace.sample",
	spRecord:         "trace.record",
	spLedgerReplay:   "bench.ledger_replay",
	spResidualWindow: "timeslot.residual_window",
	spReserveWindow:  "timeslot.reserve_window",
	spRelease:        "timeslot.release",
	spAdvance:        "timeslot.advance",
	spPoolAcquire:    "timeslot.pool_acquire",
	spPoolRelease:    "timeslot.pool_release",
}

// spanAgg aggregates every span of one name. Total is the summed duration;
// Self is Total minus the part child spans covered.
type spanAgg struct {
	Count int64 `json:"count"`
	Total int64 `json:"total"`
	Self  int64 `json:"self"`
}

// spanRecord is one span kept in full: the spans of one request (batch)
// share Request, and Parent is the ID of the span that caused this one (0
// for a root).
type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Request int64  `json:"request"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// fullEvery is how many requests (batches) go by between two whose spans
// are kept in full, starting with the first.
const fullEvery = 100

// tracer records spans made on one goroutine: the traced pass is a single
// goroutine by construction, so begin and end need no lock and nest like
// the calls they bracket. meter is the quantity a span measures:
// nanoseconds in the timed pass, heap objects allocated in the alloc pass
// (one mechanism, two meters). A nil tracer records nothing, which is the
// undecorated pass.
type tracer struct {
	meter   func() int64
	agg     [numSpans]spanAgg
	stack   []openSpan
	full    []spanRecord
	nextID  int64
	request int64
	// measured is how many wire requests the recorded pass decided: the
	// base of the per-request figures.
	measured int
	// frozen ends the recording: the decorators stay installed while the
	// replayed engine drains, and that is not part of the pass.
	frozen bool
}

type openSpan struct {
	name     spanName
	id       int64
	start    int64
	children int64
}

func newTracer(meter func() int64) *tracer {
	return &tracer{meter: meter, stack: make([]openSpan, 0, 8), full: make([]spanRecord, 0, 1<<16)}
}

// reset forgets what was recorded so far (the window fill); the pass
// that follows decides measured requests.
func (t *tracer) reset(measured int) {
	if t == nil {
		return
	}
	t.agg = [numSpans]spanAgg{}
	t.full = t.full[:0]
	t.request = 0
	t.measured = measured
}

// nextRequest starts the next request (batch): the spans that follow share
// its number.
func (t *tracer) nextRequest() {
	if t != nil {
		t.request++
	}
}

// freeze ends the recording; later begin and end calls do nothing.
func (t *tracer) freeze() {
	if t != nil {
		t.frozen = true
	}
}

func (t *tracer) begin(name spanName) {
	if t == nil || t.frozen {
		return
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{name: name, id: t.nextID, start: t.meter()})
}

func (t *tracer) end() {
	if t == nil || t.frozen {
		return
	}
	now := t.meter()
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - s.start
	a := &t.agg[s.name]
	a.Count++
	a.Total += dur
	a.Self += dur - s.children
	var parent int64
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.children += dur
		parent = p.id
	}
	// Keeping a record only while there is room keeps the tracer itself
	// from allocating, which the alloc meter would count.
	if t.request%fullEvery == 1 && len(t.full) < cap(t.full) {
		t.full = append(t.full, spanRecord{ID: s.id, Parent: parent, Name: spanNames[s.name],
			Request: t.request, Start: s.start, End: now})
	}
}

// aggregates returns the non-empty aggregates by span name.
func (t *tracer) aggregates() map[string]spanAgg {
	out := map[string]spanAgg{}
	for i, a := range t.agg {
		if a.Count > 0 {
			out[spanNames[i]] = a
		}
	}
	return out
}

// selfSum is the summed self time of every span, which by construction
// equals the summed duration of the roots.
func (t *tracer) selfSum() int64 {
	var sum int64
	for _, a := range t.agg {
		sum += a.Self
	}
	return sum
}

// selfPerRequest and totalPerRequest spread a name's self time, or its
// duration children included, over the pass's requests.
func (t *tracer) selfPerRequest(name spanName) float64 {
	return float64(t.agg[name].Self) / float64(t.measured)
}

func (t *tracer) totalPerRequest(name spanName) float64 {
	return float64(t.agg[name].Total) / float64(t.measured)
}

// perCall is the mean duration of one span of the name (0 when none ran).
func (t *tracer) perCall(name spanName) float64 {
	if t.agg[name].Count == 0 {
		return 0
	}
	return float64(t.agg[name].Total) / float64(t.agg[name].Count)
}

// allocMeter returns a meter reading the cumulative count of heap objects
// allocated by the process. runtime/metrics neither stops the world nor
// allocates; a size class's count moves when its span is swapped, so one
// span's reading is coarse but the per-name sums over a pass are not.
func allocMeter() func() int64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	return func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
}
