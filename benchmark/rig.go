package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"revnf"
	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/serve"
	"revnf/internal/trace"
	"revnf/internal/wire"
	"revnf/internal/workload"
)

// epoch anchors every timestamp the benchmark takes: since() is one
// monotonic clock read, the cheapest the standard library offers.
var epoch = time.Now()

func since() int64 { return int64(time.Since(epoch)) }

// buildNetwork draws the served network the way cmd/revnfd's loadNetwork
// does for `-horizon 64 -seed networkSeed`, so the parity daemon and the
// in-process engine price the same fleet.
func buildNetwork() (*core.Network, error) {
	setup := experiments.DefaultSetup()
	setup.Horizon = horizon
	inst, err := setup.Instance(1, setup.H, setup.K, networkSeed)
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	return inst.Network, nil
}

// buildPool draws the workload's request pool from seed. Arrivals are
// dropped: the load generator stamps the slot a request asks for when it
// sends it, not the generator.
func buildPool(sp *spec, network *core.Network, seed int64) ([]core.Request, error) {
	setup := experiments.DefaultSetup()
	pool, err := workload.GenerateTrace(workload.TraceConfig{
		Requests:       poolSize,
		Horizon:        horizon,
		MinDuration:    sp.MinDur,
		MaxDuration:    sp.MaxDur,
		MinRequirement: setup.ReqMin,
		MaxRequirement: setup.ReqMax,
		MaxPaymentRate: setup.PRMax,
		H:              setup.H,
	}, network.Catalog, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("build pool: %w", err)
	}
	for i := range pool {
		pool[i].Arrival = 0
	}
	return pool, nil
}

// encoded is one pre-encoded pool request, split around its arrival field
// so the load generator can stamp the slot at send time without encoding
// anything else again.
type encoded struct {
	pre, post []byte
}

// frameArrivalOffset is where the u32 arrival sits in a request frame:
// after the 5-byte header and the u32 vnf.
const frameArrivalOffset = 9

// ndjsonArrivalKey precedes the arrival value in an NDJSON request line.
const ndjsonArrivalKey = `"arrival":`

// encodePool pre-encodes every pool request once in the workload's wire
// protocol.
func encodePool(proto string, pool []core.Request) ([]encoded, error) {
	enc := make([]encoded, len(pool))
	for i, r := range pool {
		wr := wire.Request{VNF: r.VNF, Duration: r.Duration, Reliability: r.Reliability, Payment: r.Payment}
		if proto == "ndjson" {
			line := wire.AppendNDJSONRequest(nil, &wr)
			at := bytes.Index(line, []byte(ndjsonArrivalKey))
			end := at + len(ndjsonArrivalKey)
			if at < 0 || end >= len(line) || line[end] != '0' {
				return nil, fmt.Errorf("encode pool request %d: no arrival field in %q", i, line)
			}
			enc[i] = encoded{pre: line[:end], post: line[end+1:]}
			continue
		}
		b, err := wire.AppendRequestFrame(nil, &wr)
		if err != nil {
			return nil, fmt.Errorf("encode pool request %d: %w", i, err)
		}
		enc[i] = encoded{pre: b[:frameArrivalOffset], post: b[frameArrivalOffset+4:]}
	}
	return enc, nil
}

// stamp appends request e with the given arrival slot to buf in the
// connection's protocol.
func stamp(buf []byte, proto string, e encoded, arrival int) []byte {
	buf = append(buf, e.pre...)
	if proto == "ndjson" {
		buf = strconv.AppendInt(buf, int64(arrival), 10)
	} else {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(arrival))
	}
	return append(buf, e.post...)
}

// newEngine assembles the engine with the serve.Config cmd/revnfd builds
// for `-algorithm pd -scheme <scheme> -horizon-mode rolling -horizon 64
// -queue 4096 -workers 2 -slot 0`, chaos off. The untraced phases pass a
// nil tracer and a nil recorder (tracing off); with a tracer the scheduler
// and the recorder are wrapped in the traced pass's timing decorators.
func newEngine(sp *spec, network *core.Network, tr *tracer, rec trace.Recorder) (*serve.Engine, error) {
	if tr != nil {
		if rec == nil {
			rec = trace.Nop
		}
		rec = &timedRecorder{inner: rec, tr: tr}
	}
	sched, err := revnf.NewScheduler(network, sp.Scheme,
		revnf.WithAlgorithm(revnf.PrimalDual),
		revnf.WithHorizon(horizon),
		revnf.WithRecorder(rec))
	if err != nil {
		return nil, fmt.Errorf("build scheduler: %w", err)
	}
	if tr != nil {
		pd, ok := sched.(pdScheduler)
		if !ok {
			return nil, fmt.Errorf("scheduler %s does not offer the interfaces the timing decorator forwards", sched.Name())
		}
		sched = &timedScheduler{pdScheduler: pd, tr: tr}
	}
	return serve.New(serve.Config{
		Network:   network,
		Scheduler: sched,
		Horizon:   horizon,
		Rolling:   true,
		QueueSize: queueSize,
		Workers:   workers,
		Recorder:  rec,
	})
}

// rig is one set-up system under test: the engine and stream server
// listening on loopback TCP, plus the load generator's connections.
type rig struct {
	sp      *spec
	network *core.Network
	pool    []core.Request
	enc     []encoded

	engine   *serve.Engine
	srv      *serve.StreamServer
	addr     string
	serveErr chan error
	clients  []*client

	// ticks counts the Engine.Tick calls the benchmark has claimed, so the
	// engine's slot is at most 1 + ticks (see tickTo).
	ticks atomic.Int64

	instanceMs float64
	setupS     float64
}

// newRig generates the instance, pre-encodes the pool and starts the
// engine and its listener: a server ready for connections, at slot 1.
func newRig(sp *spec, seed int64) (*rig, error) {
	start := since()
	network, err := buildNetwork()
	if err != nil {
		return nil, err
	}
	pool, err := buildPool(sp, network, seed)
	if err != nil {
		return nil, err
	}
	r := &rig{sp: sp, network: network, pool: pool}
	r.instanceMs = float64(since()-start) / 1e6
	if r.enc, err = encodePool(sp.Proto, pool); err != nil {
		return nil, err
	}
	if r.engine, err = newEngine(sp, network, nil, nil); err != nil {
		return nil, err
	}
	if err := r.listen(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// setUp performs phase 1: a new rig, the load generator's connections,
// then horizon × K requests that fill the rolling window so phase 2 starts
// in steady state.
func setUp(sp *spec, seed int64) (*rig, tally, error) {
	start := since()
	r, err := newRig(sp, seed)
	if err != nil {
		return nil, tally{}, err
	}
	for c := 0; c < loadConns; c++ {
		cl, err := dial(r.addr, sp.Proto, c)
		if err != nil {
			r.close()
			return nil, tally{}, err
		}
		r.clients = append(r.clients, cl)
	}
	fill := r.closedLoop(horizon*sp.PerSlot, chunkSize, chunksInFlight, 1)
	r.setupS = float64(since()-start) / 1e9
	return r, fill.tally, nil
}

func (r *rig) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	r.addr = ln.Addr().String()
	r.srv = serve.NewStreamServer(r.engine)
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- r.srv.Serve(ln) }()
	return nil
}

// close tears the rig down, waits for every goroutine it started and lets
// go of the engine; the instance and the encoded pool stay. A second call
// does nothing.
func (r *rig) close() {
	for _, c := range r.clients {
		c.conn.Close()
	}
	if r.srv != nil {
		r.srv.Close()
		<-r.serveErr
	}
	if r.engine != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = r.engine.Shutdown(ctx) // nothing is in flight once the server closed
		cancel()
	}
	r.clients, r.srv, r.engine = nil, nil, nil
}

// seqIndex numbers the k-th request of connection id in the rig-wide
// request sequence: the connections interleave (id, id+conns, ...). The
// sequence fixes both the pool entry a request replays (cycling) and the
// slot it asks for: PerSlot consecutive requests share a slot.
func seqIndex(id, k int) int { return id + loadConns*k }

// tickTo advances the slot clock until the benchmark has issued target
// ticks. Each tick is claimed by compare-and-swap before Engine.Tick runs,
// so concurrent callers never tick twice for one slot and the engine's
// clock never runs ahead of the claimed count.
//
// Between back-to-back ticks the caller yields. Tick holds the engine
// mutex, and a sharded decision that has reserved its footprint needs the
// same mutex to book it; until it has, the window base cannot advance. A
// caller re-taking the mutex in a tight loop (catching up after a stall)
// starves that decision for up to a millisecond, the clock runs a whole
// window ahead of the base, and everything is refused as past the horizon.
// The real daemon ticks once per slot duration and never does this.
func (r *rig) tickTo(target int64) {
	for first := true; ; first = false {
		t := r.ticks.Load()
		if t >= target {
			return
		}
		if !first {
			runtime.Gosched()
		}
		if r.ticks.CompareAndSwap(t, t+1) {
			r.engine.Tick()
		}
	}
}

// client is one load-generator connection. sent and recv number the
// requests written and the decisions read over the connection's lifetime.
// Only the connection's writer touches sent; only its reader touches
// lastID and stores recv, which the other connection's goroutines load to
// keep the connections in step.
type client struct {
	id    int
	proto string
	conn  net.Conn
	br    *bufio.Reader
	fr    *wire.FrameReader

	sent   int
	recv   atomic.Int64
	lastID uint64
}

func dial(addr, proto string, id int) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c := &client{id: id, proto: proto, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	if proto == "frame" {
		c.fr = wire.NewFrameReader(c.br)
		if _, err := conn.Write(wire.AppendPreamble(nil)); err != nil {
			conn.Close()
			return nil, fmt.Errorf("write preamble: %w", err)
		}
	}
	return c, nil
}

// readDecision reads the next decision in the connection's protocol.
func (c *client) readDecision(d *wire.Decision) error {
	if c.proto == "ndjson" {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		return wire.DecodeNDJSONDecision(line, d)
	}
	typ, payload, err := c.fr.Next()
	if err != nil {
		return err
	}
	if typ != wire.FrameDecision {
		return fmt.Errorf("server sent frame type %d, not a decision", typ)
	}
	return wire.DecodeDecision(payload, d)
}

// tally counts one phase's requests as the client saw them.
type tally struct {
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Admitted  int     `json:"admitted"`
	Revenue   float64 `json:"revenue"`
	// samples holds one in placementSampleEvery admitted decisions for the
	// post-run placement re-check.
	samples []placementSample
}

type placementSample struct {
	id      int
	poolIdx int
}

const placementSampleEvery = 1000

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Succeeded += o.Succeeded
	t.Failed += o.Failed
	t.Admitted += o.Admitted
	t.Revenue += o.Revenue
	t.samples = append(t.samples, o.samples...)
}

func (t tally) admitRatio() float64 {
	if t.Succeeded == 0 {
		return 0
	}
	return float64(t.Admitted) / float64(t.Succeeded)
}

// account checks one decision against the benchmark's contract — ids
// strictly increase per connection, and the only outcomes a valid request
// can get are admission, the scheduler declining it, or losing a commit
// race — and books it. Anything else (throttled, invalid, stale, closed)
// is a failure.
func (c *client) account(t *tally, d *wire.Decision, pool []core.Request) {
	idx := seqIndex(c.id, int(c.recv.Load())) % poolSize
	c.recv.Add(1)
	inOrder := d.ID > c.lastID
	c.lastID = d.ID
	switch {
	case !inOrder:
		t.Failed++
	case d.Admitted && d.Reason == wire.ReasonNone:
		t.Succeeded++
		t.Admitted++
		t.Revenue += pool[idx].Payment
		if t.Admitted%placementSampleEvery == 0 {
			t.samples = append(t.samples, placementSample{id: int(d.ID), poolIdx: idx})
		}
	case !d.Admitted && (d.Reason == wire.ReasonDeclined || d.Reason == wire.ReasonConflict):
		t.Succeeded++
	default:
		t.Failed++
	}
}

// ioDeadline bounds every phase's socket waits, so a wedged server fails
// the run instead of hanging it.
const ioDeadline = 120 * time.Second
