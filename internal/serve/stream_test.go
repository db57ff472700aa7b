package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"revnf/internal/core"
	"revnf/internal/onsite"
	"revnf/internal/trace"
	"revnf/internal/wire"
)

// goldenStream is the request stream the cross-protocol golden test
// replays through every ingress: admissions, price-outs, infeasible
// requirements, invalid and horizon-violating windows.
func goldenStream() []AdmissionRequest {
	var reqs []AdmissionRequest
	for i := 0; i < 200; i++ {
		ar := AdmissionRequest{
			VNF:         0,
			Reliability: 0.9,
			Duration:    1 + (i*7)%5,
			Payment:     40 + float64((i*13)%60),
		}
		switch i % 10 {
		case 3:
			ar.Payment = 0.25 // priced out once λ builds
		case 5:
			ar.Reliability = 0.995 // no cloudlet can serve it
		case 7:
			ar.Duration = 99 // beyond the horizon
		case 9:
			ar.Duration = 0 // invalid
		}
		reqs = append(reqs, ar)
	}
	return reqs
}

func ndjsonStreamBody(reqs []AdmissionRequest) []byte {
	var buf []byte
	for i := range reqs {
		wr := wire.Request{VNF: reqs[i].VNF, Arrival: reqs[i].Arrival, Duration: reqs[i].Duration,
			Reliability: reqs[i].Reliability, Payment: reqs[i].Payment}
		buf = wire.AppendNDJSONRequest(buf, &wr)
	}
	return buf
}

func frameStreamBody(t testing.TB, reqs []AdmissionRequest) []byte {
	t.Helper()
	buf := wire.AppendPreamble(nil)
	for i := range reqs {
		wr := wire.Request{VNF: reqs[i].VNF, Arrival: reqs[i].Arrival, Duration: reqs[i].Duration,
			Reliability: reqs[i].Reliability, Payment: reqs[i].Payment}
		var err error
		buf, err = wire.AppendRequestFrame(buf, &wr)
		if err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	return buf
}

func readDecisions(t *testing.T, conn net.Conn, want int, frame bool) []wire.Decision {
	t.Helper()
	out := make([]wire.Decision, 0, want)
	if frame {
		fr := wire.NewFrameReader(bufio.NewReader(conn))
		for len(out) < want {
			typ, payload, err := fr.Next()
			if err != nil {
				t.Fatalf("after %d decisions: %v", len(out), err)
			}
			if typ != wire.FrameDecision {
				code, reason, detail, _ := wire.DecodeError(payload)
				t.Fatalf("after %d decisions: frame type %#x (error %d/%v: %s)", len(out), typ, code, reason, detail)
			}
			var d wire.Decision
			if err := wire.DecodeDecision(payload, &d); err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
	} else {
		sc := bufio.NewScanner(conn)
		for len(out) < want && sc.Scan() {
			var d wire.Decision
			if err := wire.DecodeNDJSONDecision(sc.Bytes(), &d); err != nil {
				t.Fatalf("decision line %q: %v", sc.Bytes(), err)
			}
			out = append(out, d)
		}
		if len(out) < want {
			t.Fatalf("stream ended after %d/%d decisions: %v", len(out), want, sc.Err())
		}
	}
	return out
}

// net.Pipe conns do not implement CloseWrite; wrap with a half-closable
// TCP pair when the test needs EOF semantics.
func tcpPair(t *testing.T) (client *net.TCPConn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { c.Close(); a.c.Close() })
	return c.(*net.TCPConn), a.c
}

// runStreamTCP is runStream over a real TCP pair (half-close support).
func runStreamTCP(t *testing.T, e *Engine, body []byte, want int, frame bool) []wire.Decision {
	t.Helper()
	client, server := tcpPair(t)
	s := NewStreamServer(e)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(server)
	}()
	t.Cleanup(func() { <-done })
	go func() {
		client.Write(body)
		client.CloseWrite()
	}()
	return readDecisions(t, client, want, frame)
}

func TestStreamNDJSONBasic(t *testing.T) {
	e := newTestEngine(t, 20)
	reqs := []AdmissionRequest{
		{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10},
		{VNF: 0, Reliability: 0.995, Duration: 3, Payment: 10},
		{VNF: 0, Reliability: 0.9, Duration: 99, Payment: 10},
	}
	// Blank keep-alive lines are read past, and the last line needs no
	// newline.
	body := ndjsonStreamBody(reqs)
	body = append([]byte("\n \t\r\n"), bytes.Replace(body[:len(body)-1], []byte("}\n"), []byte("}\n\n  \n"), 1)...)
	ds := runStreamTCP(t, e, body, len(reqs), false)
	if !ds[0].Admitted || ds[0].ID != 1 || ds[0].Slot != 1 {
		t.Fatalf("decision 0 = %+v, want admitted id 1 slot 1", ds[0])
	}
	if ds[1].Admitted || ds[1].Reason.Reason() != ReasonDeclined {
		t.Fatalf("decision 1 = %+v, want declined", ds[1])
	}
	if ds[2].Admitted || ds[2].Reason.Reason() != ReasonHorizon {
		t.Fatalf("decision 2 = %+v, want horizon", ds[2])
	}
}

func TestStreamFrameBasic(t *testing.T) {
	e := newTestEngine(t, 20)
	reqs := []AdmissionRequest{
		{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10},
		{VNF: 7, Reliability: 0.9, Duration: 3, Payment: 10},
	}
	ds := runStreamTCP(t, e, frameStreamBody(t, reqs), len(reqs), true)
	if !ds[0].Admitted || ds[0].ID != 1 {
		t.Fatalf("decision 0 = %+v, want admitted id 1", ds[0])
	}
	if ds[1].Admitted || ds[1].Reason.Reason() != ReasonInvalid {
		t.Fatalf("decision 1 = %+v, want invalid", ds[1])
	}
}

// TestStreamCrossProtocolGolden is the tentpole's correctness anchor: the
// same request stream ingested through individual HTTP posts, an NDJSON
// stream, and a binary-frame stream must produce bit-identical decisions
// and decision traces on three fresh engines.
func TestStreamCrossProtocolGolden(t *testing.T) {
	reqs := goldenStream()

	type ingested struct {
		name      string
		decisions []wire.Decision
		store     *trace.Store
		stats     Stats
	}
	var runs []ingested

	// HTTP: one post per request against a fresh traced engine.
	{
		e, store := goldenEngine(t, 24, false)
		srv := httptest.NewServer(NewHandler(e))
		t.Cleanup(srv.Close)
		var ds []wire.Decision
		for i := range reqs {
			body, _ := json.Marshal(reqs[i])
			resp, dec := postRequest(t, srv.URL, string(body))
			if resp.StatusCode != 200 {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
			ds = append(ds, wire.Decision{
				ID: uint64(dec.ID), Slot: dec.Slot, Admitted: dec.Admitted,
				Reason: wire.CodeForReason(dec.Reason),
			})
		}
		runs = append(runs, ingested{"json", ds, store, e.Stats()})
	}
	// NDJSON and frame streams on their own fresh engines.
	{
		e, store := goldenEngine(t, 24, false)
		ds := runStreamTCP(t, e, ndjsonStreamBody(reqs), len(reqs), false)
		runs = append(runs, ingested{"ndjson", ds, store, e.Stats()})
	}
	{
		e, store := goldenEngine(t, 24, false)
		ds := runStreamTCP(t, e, frameStreamBody(t, reqs), len(reqs), true)
		runs = append(runs, ingested{"frame", ds, store, e.Stats()})
	}

	ref := runs[0]
	for _, run := range runs[1:] {
		for i := range reqs {
			if run.decisions[i] != ref.decisions[i] {
				t.Fatalf("request %d: %s decision %+v != %s decision %+v",
					i, run.name, run.decisions[i], ref.name, ref.decisions[i])
			}
		}
		if run.stats.Admitted != ref.stats.Admitted || run.stats.Revenue != ref.stats.Revenue {
			t.Fatalf("%s stats admitted=%d revenue=%v, %s admitted=%d revenue=%v",
				run.name, run.stats.Admitted, run.stats.Revenue,
				ref.name, ref.stats.Admitted, ref.stats.Revenue)
		}
		for reason, n := range ref.stats.Rejections {
			if got := run.stats.Rejections[reason]; got != n {
				t.Fatalf("rejections[%q]: %s %d, %s %d", reason, run.name, got, ref.name, n)
			}
		}
		// Traces byte-identical under JSON encoding, request by request.
		for i := range reqs {
			id := int(ref.decisions[i].ID)
			if id == 0 {
				continue
			}
			rt, rok := ref.store.Get(id)
			ot, ook := run.store.Get(id)
			if rok != ook {
				t.Fatalf("trace %d: %s ok=%v %s ok=%v", id, ref.name, rok, run.name, ook)
			}
			if !rok { // not every decision is traced (e.g. pre-validation rejects)
				continue
			}
			rj, err := json.Marshal(rt)
			if err != nil {
				t.Fatal(err)
			}
			oj, err := json.Marshal(ot)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rj, oj) {
				t.Fatalf("trace %d diverged\n%s: %s\n%s: %s", id, ref.name, rj, run.name, oj)
			}
		}
	}
}

// TestSubmitBatchMatchesSubmit pins one batch to the same requests
// submitted one per call, in the same order: identical results.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reqs := goldenStream()
			single := newGoldenWorkersEngine(t, 24, workers)
			batch := newGoldenWorkersEngine(t, 24, workers)
			out := make([]AdmissionResult, len(reqs))
			if err := batch.SubmitBatch(context.Background(), reqs, out); err != nil {
				t.Fatal(err)
			}
			for i := range reqs {
				want, err := submitOne(context.Background(), single, reqs[i])
				if err != nil {
					t.Fatal(err)
				}
				got := out[i]
				if got.ID != want.ID || got.Admitted != want.Admitted ||
					got.Reason != want.Reason || got.Slot != want.Slot {
					t.Fatalf("request %d: batch %+v, single %+v", i, got, want)
				}
			}
			bs, ss := batch.Stats(), single.Stats()
			if bs.Admitted != ss.Admitted || bs.Revenue != ss.Revenue {
				t.Fatalf("batch admitted=%d revenue=%v, single admitted=%d revenue=%v",
					bs.Admitted, bs.Revenue, ss.Admitted, ss.Revenue)
			}
		})
	}
}

// newGoldenWorkersEngine builds an engine with deterministic decisions at
// the given worker count. A single submitter (one batch, or a loop of
// Submits) keeps decisions ordered at any count, so results are comparable.
func newGoldenWorkersEngine(t *testing.T, horizon, workers int) *Engine {
	t.Helper()
	n := testNetwork()
	sched, err := onsite.NewScheduler(n, horizon, onsite.WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: horizon, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownEngine(t, e) })
	return e
}

// TestSubmitBatchQueueFull: a batch beyond the waiting bound is rejected
// per request with queue-full results, not an error, so a streaming
// connection keeps its request/response pairing — at every worker count.
func TestSubmitBatchQueueFull(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := newTestEngine(t, 20, func(c *Config) {
			c.Workers = workers
			c.QueueSize = 1
		})
		reqs := make([]AdmissionRequest, 8) // 8 > queue 1 + workers
		for i := range reqs {
			reqs[i] = AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 5}
		}
		out := make([]AdmissionResult, len(reqs))
		if err := e.SubmitBatch(context.Background(), reqs, out); err != nil {
			t.Fatal(err)
		}
		for i, res := range out {
			if res.Admitted || res.Reason != ReasonQueueFull || res.ID != 0 {
				t.Fatalf("workers=%d: result %d = %+v, want queue-full", workers, i, res)
			}
		}
		if s := e.Stats(); s.Rejections[ReasonQueueFull] != uint64(len(reqs)) || s.QueueDepth != 0 || s.InFlight != 0 {
			t.Fatalf("workers=%d: queue-full rejections = %d, QueueDepth = %d, InFlight = %d; want %d, 0, 0",
				workers, s.Rejections[ReasonQueueFull], s.QueueDepth, s.InFlight, len(reqs))
		}
	}
}

// TestStreamErrorEnvelopes covers the streaming equivalents of the HTTP
// error envelope: malformed input and engine shutdown must surface as
// structured error records carrying the same code/reason/detail triple.
func TestStreamErrorEnvelopes(t *testing.T) {
	t.Run("ndjson bad line", func(t *testing.T) {
		e := newTestEngine(t, 20)
		client, server := tcpPair(t)
		s := NewStreamServer(e)
		go s.ServeConn(server)
		// One good request, then garbage: the good decision must arrive
		// before the terminal error line.
		io.WriteString(client, `{"vnf":0,"reliability":0.9,"duration":3,"payment":10}`+"\n")
		io.WriteString(client, "this is not json\n")
		client.CloseWrite()
		sc := bufio.NewScanner(client)
		if !sc.Scan() {
			t.Fatal("no decision line")
		}
		var d wire.Decision
		if err := wire.DecodeNDJSONDecision(sc.Bytes(), &d); err != nil || !d.Admitted {
			t.Fatalf("first line %q: err=%v d=%+v", sc.Bytes(), err, d)
		}
		if !sc.Scan() {
			t.Fatal("no error line")
		}
		var env struct {
			Error struct {
				Code   int    `json:"code"`
				Reason string `json:"reason"`
				Detail string `json:"detail"`
			} `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("error line %q: %v", sc.Bytes(), err)
		}
		if env.Error.Code != 400 || env.Error.Reason != ReasonInvalid || env.Error.Detail == "" {
			t.Fatalf("error envelope = %+v, want code 400 reason invalid", env.Error)
		}
		if sc.Scan() {
			t.Fatalf("line after terminal error: %q", sc.Bytes())
		}
	})

	t.Run("frame bad type", func(t *testing.T) {
		e := newTestEngine(t, 20)
		client, server := tcpPair(t)
		s := NewStreamServer(e)
		go s.ServeConn(server)
		buf := wire.AppendPreamble(nil)
		buf = append(buf, 2, 0, 0, 0, 0x7f, 0xaa) // unknown frame type
		client.Write(buf)
		client.CloseWrite()
		fr := wire.NewFrameReader(bufio.NewReader(client))
		typ, payload, err := fr.Next()
		if err != nil || typ != wire.FrameError {
			t.Fatalf("Next = (%#x, _, %v), want FrameError", typ, err)
		}
		code, reason, _, err := wire.DecodeError(payload)
		if err != nil {
			t.Fatal(err)
		}
		if code != 400 || reason != wire.ReasonInvalid {
			t.Fatalf("error = (%d, %v), want (400, invalid)", code, reason)
		}
	})

	// A frame cut short by a half-closing client is answered the same way
	// wherever the cut falls: the decisions already owed, then one terminal
	// 400, counted once.
	for _, cut := range []struct {
		name string
		keep int // bytes of the second frame that arrive
	}{{"frame cut inside its header", 3}, {"frame cut inside its payload", 20}} {
		t.Run(cut.name, func(t *testing.T) {
			e := newTestEngine(t, 20)
			client, server := tcpPair(t)
			s := NewStreamServer(e)
			go s.ServeConn(server)
			good := frameStreamBody(t, []AdmissionRequest{{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10}})
			second := good[len(wire.AppendPreamble(nil)):]
			client.Write(append(good, second[:cut.keep]...))
			client.CloseWrite()
			fr := wire.NewFrameReader(bufio.NewReader(client))
			typ, payload, err := fr.Next()
			var d wire.Decision
			if err != nil || typ != wire.FrameDecision || wire.DecodeDecision(payload, &d) != nil || !d.Admitted {
				t.Fatalf("first frame = (%#x, %v, %+v), want the admitted decision", typ, err, d)
			}
			typ, payload, err = fr.Next()
			if err != nil || typ != wire.FrameError {
				t.Fatalf("second frame = (%#x, _, %v), want FrameError", typ, err)
			}
			code, reason, detail, err := wire.DecodeError(payload)
			if err != nil || code != 400 || reason != wire.ReasonInvalid || string(detail) != "truncated frame" {
				t.Fatalf("error = (%d, %v, %q, %v), want (400, invalid, truncated frame)", code, reason, detail, err)
			}
			if _, _, err := fr.Next(); err != io.EOF {
				t.Fatalf("after the terminal error: %v, want io.EOF", err)
			}
			if got := e.ingest.streamErrors.Load(); got != 1 {
				t.Fatalf("stream_errors_total = %d, want 1", got)
			}
		})
	}

	// A connection that dies instead of half-closing is a transport error:
	// nobody is left to read a reply, and nothing is counted.
	t.Run("reset inside a frame", func(t *testing.T) {
		e := newTestEngine(t, 20)
		client, server := tcpPair(t)
		s := NewStreamServer(e)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.ServeConn(server)
		}()
		body := frameStreamBody(t, []AdmissionRequest{{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10}})
		client.Write(body[:len(body)-10])
		client.SetLinger(0) // Close sends a reset
		client.Close()
		<-done
		if got := e.ingest.streamErrors.Load(); got != 0 {
			t.Fatalf("stream_errors_total = %d after a reset, want 0", got)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		e := newTestEngine(t, 20)
		client, server := tcpPair(t)
		s := NewStreamServer(e)
		go s.ServeConn(server)
		io.WriteString(client, "RONG!")
		client.CloseWrite()
		fr := wire.NewFrameReader(bufio.NewReader(client))
		typ, payload, err := fr.Next()
		if err != nil || typ != wire.FrameError {
			t.Fatalf("Next = (%#x, _, %v), want FrameError", typ, err)
		}
		if code, reason, _, _ := wire.DecodeError(payload); code != 400 || reason != wire.ReasonInvalid {
			t.Fatalf("error = (%d, %v), want (400, invalid)", code, reason)
		}
	})

	// The NDJSON line limit is the 16 KiB read buffer: a line of exactly
	// that length, newline included, is decided, and one byte more is a
	// terminal 400 after the decisions owed. A frame header announcing more
	// than any request frame holds is refused without waiting for the rest.
	good := AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 10}
	padded := func(n int) []byte {
		line := ndjsonStreamBody([]AdmissionRequest{good})
		return append(append(line[:len(line)-1], bytes.Repeat([]byte{' '}, n-len(line))...), '\n')
	}
	for _, tc := range []struct {
		name   string
		frame  bool
		tail   []byte
		detail string // of the terminal error; "" when the tail is decided
	}{
		{"ndjson line the size of the buffer", false, padded(16 << 10), ""},
		{"ndjson line over the buffer", false, padded(16<<10 + 1), "request line exceeds buffer"},
		{"frame longer than any request", true,
			append(binary.LittleEndian.AppendUint32(nil, wire.MaxRequestFrame), wire.FrameRequest), "bad frame length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, 20)
			ln := listenLoopback(t)
			serveStream(t, e, ln)
			c := dialStream(t, ln.Addr().String(), tc.frame)
			c.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // no half-close: a server that waits fails
			c.send(good)
			c.conn.Write(tc.tail)
			if d, code, _, err := c.next(); err != nil || code != 0 || !d.Admitted {
				t.Fatalf("first record = (%+v, %d, %v), want the admitted decision", d, code, err)
			}
			_, code, reason, err := c.next()
			if tc.detail == "" {
				if err != nil || code != 0 {
					t.Fatalf("second record = (%d, %q, %v), want a decision", code, c.detail, err)
				}
				return
			}
			if err != nil || code != 400 || reason != ReasonInvalid || c.detail != tc.detail {
				t.Fatalf("second record = (%d, %q, %q, %v), want (400, invalid, %q)", code, reason, c.detail, err, tc.detail)
			}
			if _, _, _, err := c.next(); err == nil {
				t.Fatal("a record after the terminal error, want the connection closed")
			}
			if got := e.ingest.streamErrors.Load(); got != 1 {
				t.Fatalf("stream_errors_total = %d, want 1", got)
			}
		})
	}

	t.Run("engine closed", func(t *testing.T) {
		e := newTestEngine(t, 20)
		shutdownEngine(t, e)
		client, server := tcpPair(t)
		s := NewStreamServer(e)
		go s.ServeConn(server)
		io.WriteString(client, `{"vnf":0,"reliability":0.9,"duration":3,"payment":10}`+"\n")
		client.CloseWrite()
		sc := bufio.NewScanner(client)
		if !sc.Scan() {
			t.Fatal("no error line")
		}
		var env struct {
			Error struct {
				Code   int    `json:"code"`
				Reason string `json:"reason"`
			} `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("error line %q: %v", sc.Bytes(), err)
		}
		if env.Error.Code != 503 || env.Error.Reason != ReasonClosed {
			t.Fatalf("error envelope = %+v, want code 503 reason closed", env.Error)
		}
	})
}

// TestStreamConcurrentConnections soaks the listener path: several
// connections stream concurrently against a sharded engine; every
// connection must get one in-order decision per request.
func TestStreamConcurrentConnections(t *testing.T) {
	e := newTestEngine(t, 20, func(c *Config) {
		c.Workers = 4
		c.QueueSize = 4096
	})
	ln := listenLoopback(t)
	serveStream(t, e, ln)

	const conns, perConn = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		frame := c%2 == 0
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			var body []byte
			if frame {
				body = wire.AppendPreamble(nil)
			}
			for i := 0; i < perConn; i++ {
				wr := wire.Request{VNF: 0, Reliability: 0.9, Duration: 1 + i%5, Payment: 5 + float64(i%40)}
				if frame {
					body, err = wire.AppendRequestFrame(body, &wr)
					if err != nil {
						errs <- err
						return
					}
				} else {
					body = wire.AppendNDJSONRequest(body, &wr)
				}
			}
			if _, err := conn.Write(body); err != nil {
				errs <- err
				return
			}
			conn.(*net.TCPConn).CloseWrite()
			seen := make(map[uint64]bool, perConn)
			var ds []wire.Decision
			if frame {
				fr := wire.NewFrameReader(bufio.NewReader(conn))
				for len(ds) < perConn {
					typ, payload, err := fr.Next()
					if err != nil || typ != wire.FrameDecision {
						errs <- fmt.Errorf("conn frame read after %d: typ=%#x err=%v", len(ds), typ, err)
						return
					}
					var d wire.Decision
					if err := wire.DecodeDecision(payload, &d); err != nil {
						errs <- err
						return
					}
					ds = append(ds, d)
				}
			} else {
				sc := bufio.NewScanner(conn)
				for len(ds) < perConn && sc.Scan() {
					var d wire.Decision
					if err := wire.DecodeNDJSONDecision(sc.Bytes(), &d); err != nil {
						errs <- fmt.Errorf("bad decision line %q: %v", sc.Bytes(), err)
						return
					}
					ds = append(ds, d)
				}
				if len(ds) < perConn {
					errs <- fmt.Errorf("stream ended after %d/%d: %v", len(ds), perConn, sc.Err())
					return
				}
			}
			for _, d := range ds {
				if d.ID == 0 || seen[d.ID] {
					errs <- fmt.Errorf("duplicate or zero decision id %d", d.ID)
					return
				}
				seen[d.ID] = true
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if total := st.Admitted + st.RejectedTotal(); total != conns*perConn {
		t.Fatalf("decided %d, want %d", total, conns*perConn)
	}
	if got := e.ingest.frameReqs.Load() + e.ingest.ndjsonReqs.Load(); got != conns*perConn {
		t.Fatalf("ingest counters = %d, want %d", got, conns*perConn)
	}
}

// markedPanicScheduler panics in the Propose of a request lasting
// panicDuration slots, every time.
type markedPanicScheduler struct{ core.Scheduler }

const panicDuration = 7

func (p markedPanicScheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	if req.Duration == panicDuration {
		panic("scheduler bug")
	}
	return p.Scheduler.Propose(req, view)
}

// streamClient is one test connection to a StreamServer in either protocol.
type streamClient struct {
	t      *testing.T
	frame  bool
	conn   net.Conn
	fr     *wire.FrameReader
	sc     *bufio.Scanner
	detail string // of the last terminal error record read
}

// serveStream serves e on ln until the test ends, then closes the server
// and checks that Serve returned cleanly.
func serveStream(t *testing.T, e *Engine, ln net.Listener) *StreamServer {
	t.Helper()
	s := NewStreamServer(e)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func dialStream(t *testing.T, addr string, frame bool) *streamClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &streamClient{t: t, frame: frame, conn: conn}
	if frame {
		conn.Write(wire.AppendPreamble(nil))
		c.fr = wire.NewFrameReader(bufio.NewReader(conn))
	} else {
		c.sc = bufio.NewScanner(conn)
	}
	return c
}

// send writes the requests in one Write.
func (c *streamClient) send(reqs ...AdmissionRequest) {
	c.t.Helper()
	body := ndjsonStreamBody(reqs)
	if c.frame {
		body = frameStreamBody(c.t, reqs)[len(wire.AppendPreamble(nil)):]
	}
	if _, err := c.conn.Write(body); err != nil {
		c.t.Fatal(err)
	}
}

// next reads one record: a decision (code 0), a terminal error's code and
// reason, or io.EOF once the server has closed the connection.
func (c *streamClient) next() (d wire.Decision, code int, reason string, err error) {
	c.t.Helper()
	if c.frame {
		typ, payload, err := c.fr.Next()
		if err != nil {
			return d, 0, "", err
		}
		if typ == wire.FrameError {
			code, rc, detail, err := wire.DecodeError(payload)
			c.detail = string(detail)
			return d, code, rc.Reason(), err
		}
		return d, 0, "", wire.DecodeDecision(payload, &d)
	}
	if !c.sc.Scan() {
		return d, 0, "", io.EOF
	}
	var env struct {
		Error *struct {
			Code   int    `json:"code"`
			Reason string `json:"reason"`
			Detail string `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(c.sc.Bytes(), &env); err != nil {
		return d, 0, "", err
	}
	if env.Error != nil {
		c.detail = env.Error.Detail
		return d, env.Error.Code, env.Error.Reason, nil
	}
	return d, 0, "", wire.DecodeNDJSONDecision(c.sc.Bytes(), &d)
}

// TestStreamPanicClosesConnectionNotDaemon: a decision that panics on the
// stream path costs its connection — which reads a terminal 500 in its own
// protocol where the batch's decisions would have been, then EOF — and
// nothing else: the worker token is back, the panic is counted, and another
// connection's next batch is decided.
func TestStreamPanicClosesConnectionNotDaemon(t *testing.T) {
	log.SetOutput(io.Discard) // the recovered panic's stack
	defer log.SetOutput(os.Stderr)
	good := AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 10}
	marked := good
	marked.Duration = panicDuration
	for _, frame := range []bool{true, false} {
		name := "ndjson panics, frame survives"
		if frame {
			name = "frame panics, ndjson survives"
		}
		t.Run(name, func(t *testing.T) {
			n := testNetwork()
			inner, err := onsite.NewScheduler(n, 20, onsite.WithCapacityEnforcement())
			if err != nil {
				t.Fatal(err)
			}
			e := newTestEngine(t, 20, func(c *Config) {
				c.Scheduler = markedPanicScheduler{inner}
				c.Workers = 2
			})
			ln := listenLoopback(t)
			serveStream(t, e, ln)
			victim, other := dialStream(t, ln.Addr().String(), frame), dialStream(t, ln.Addr().String(), !frame)
			other.send(good)
			if d, code, _, err := other.next(); err != nil || code != 0 || !d.Admitted {
				t.Fatalf("the other connection's first decision = (%+v, %d, %v), want admitted", d, code, err)
			}

			// The good request ahead of the marked one may be decided in a batch
			// of its own (one decision, then the error) or in the marked one's
			// batch (the error stands in for both).
			victim.send(good, marked, good)
			decisions := 0
			for {
				_, code, reason, err := victim.next()
				if err != nil {
					t.Fatalf("after %d decisions: %v, want a terminal error record", decisions, err)
				}
				if code == 0 {
					decisions++
					continue
				}
				if code != 500 || reason != string(trace.ReasonInternal) || decisions > 1 {
					t.Fatalf("terminal record = (%d, %q) after %d decisions, want (500, internal) after at most one", code, reason, decisions)
				}
				break
			}
			if _, _, _, err := victim.next(); err != io.EOF {
				t.Fatalf("after the terminal error: %v, want io.EOF", err)
			}
			if got := e.ingest.streamPanics.Load(); got != 1 {
				t.Errorf("stream_panics_total = %d, want 1", got)
			}
			if st := e.Stats(); len(e.sem) != e.Workers() || st.InFlight != 0 || st.QueueDepth != 0 {
				t.Errorf("%d of %d tokens idle, InFlight %d, QueueDepth %d after the panic, want all idle and 0, 0",
					len(e.sem), e.Workers(), st.InFlight, st.QueueDepth)
			}
			other.send(good, good)
			for i := 0; i < 2; i++ {
				if d, code, _, err := other.next(); err != nil || code != 0 || d.ID == 0 {
					t.Fatalf("the other connection's decision %d after the panic = (%+v, %d, %v), want a decision", i, d, code, err)
				}
			}
		})
	}
}

// declinedStream encodes n requests the engine declines (a payment of zero
// never beats a price) for either streaming protocol, preamble excluded.
func declinedStream(t testing.TB, n int, frame bool) []byte {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		wr := wire.Request{VNF: 0, Reliability: 0.9, Duration: 1 + i%5}
		if !frame {
			buf = wire.AppendNDJSONRequest(buf, &wr)
			continue
		}
		var err error
		if buf, err = wire.AppendRequestFrame(buf, &wr); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// drainDecisions reads the connection until n decisions have arrived,
// counting them without decoding (a decision frame has one size, an NDJSON
// decision is one line) so the client side of a measurement allocates
// nothing. It reports the count reached.
func drainDecisions(conn net.Conn, n int, frame bool, buf []byte) int {
	decisionFrame := len(wire.AppendDecisionFrame(nil, &wire.Decision{}))
	got, bytesIn := 0, 0
	for got < n {
		k, err := conn.Read(buf)
		if frame {
			bytesIn += k
			got = bytesIn / decisionFrame
		} else {
			got += bytes.Count(buf[:k], []byte{'\n'})
		}
		if err != nil {
			break
		}
	}
	return got
}

// TestStreamSteadyStateAllocs pins the stream layer's cost model for both
// codecs: once a connection's buffers exist, a request that the engine
// declines crosses StreamServer — read, decode, batch, decide, encode,
// write — without a heap allocation. Counted the way
// TestEngineRetainsBoundedState counts: the process's malloc counter, so
// the client side of the test is kept allocation-free too.
func TestStreamSteadyStateAllocs(t *testing.T) {
	const (
		chunk    = 500
		requests = 40 * chunk
	)
	for _, frame := range []bool{true, false} {
		name := "ndjson"
		if frame {
			name = "frame"
		}
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, 20)
			client, server := tcpPair(t)
			s := NewStreamServer(e)
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.ServeConn(server)
			}()
			body := declinedStream(t, chunk, frame)
			readBuf := make([]byte, 64<<10)
			if frame {
				client.Write(wire.AppendPreamble(nil))
			}
			// Warm-up: the connection's buffers, batches and goroutines.
			client.Write(body)
			if got := drainDecisions(client, chunk, frame, readBuf); got != chunk {
				t.Fatalf("warm-up: %d/%d decisions", got, chunk)
			}
			sent := make(chan struct{})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			go func() {
				defer close(sent)
				for i := 0; i < requests/chunk; i++ {
					client.Write(body)
				}
			}()
			got := drainDecisions(client, requests, frame, readBuf)
			runtime.ReadMemStats(&after)
			<-sent
			if got != requests {
				t.Fatalf("%d/%d decisions", got, requests)
			}
			perRequest := float64(after.Mallocs-before.Mallocs) / requests
			t.Logf("%d mallocs over %d requests: %.4f per request", after.Mallocs-before.Mallocs, requests, perRequest)
			if perRequest > 0.05 {
				t.Errorf("the stream layer allocates %.3f objects per request, want ≤ 0.05", perRequest)
			}
			if st := e.Stats(); st.Rejections[ReasonDeclined] != requests+chunk {
				t.Errorf("declined %d, want every one of %d requests", st.Rejections[ReasonDeclined], requests+chunk)
			}
			client.CloseWrite()
			<-done
		})
	}
}

// smallBufListener gives every accepted connection 4 KiB socket buffers,
// so a client that stops reading fills them within a few batches.
type smallBufListener struct{ *net.TCPListener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	c.SetReadBuffer(4 << 10)
	c.SetWriteBuffer(4 << 10)
	return c, nil
}

// TestStreamStalledReader: a client that sends requests and never reads
// its replies fills the socket, the only buffer between the decisions and
// it, and its connection blocks writing them. That blocks nothing else: a
// second connection on the same engine is still decided, and Close, which
// closes the stalled connection under its blocked write, returns.
func TestStreamStalledReader(t *testing.T) {
	e := newTestEngine(t, 20)
	ln := listenLoopback(t)
	s := serveStream(t, e, smallBufListener{ln.(*net.TCPListener)})
	stalled := dialStream(t, ln.Addr().String(), true)
	stalled.conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	// The server reads until its write blocks; then the requests back up
	// until the client's own write stops moving.
	body := declinedStream(t, 1024, true)
	for sent := 0; ; sent++ {
		stalled.conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := stalled.conn.Write(body); errors.Is(err, os.ErrDeadlineExceeded) {
			break
		} else if err != nil || sent == 1000 {
			t.Fatalf("after %d writes of %d requests: %v, want a client write that stalls", sent, 1024, err)
		}
	}
	if st := e.Stats(); len(e.sem) != e.Workers() || st.InFlight != 0 {
		t.Errorf("%d of %d tokens idle, InFlight %d behind a stalled reader, want all idle and 0",
			len(e.sem), e.Workers(), st.InFlight)
	}
	other := dialStream(t, ln.Addr().String(), false)
	for i := 0; i < 3; i++ {
		other.send(AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1, Payment: 10})
		if d, code, _, err := other.next(); err != nil || code != 0 || d.ID == 0 {
			t.Fatalf("the other connection's decision %d = (%+v, %d, %v), want a decision", i, d, code, err)
		}
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a stalled reader connected")
	}
}

// TestStreamConnectionFootprint bounds what a stream connection holds
// between batches: the heap (read buffer, batch arrays, socket) and the
// goroutine stack, server and client side together, measured over 32
// loopback frame connections after one 64-request batch each.
func TestStreamConnectionFootprint(t *testing.T) {
	const conns, batch, bound = 32, 64, 48 << 10
	e := newTestEngine(t, 20)
	ln := listenLoopback(t)
	serveStream(t, e, ln)
	body := append(wire.AppendPreamble(nil), declinedStream(t, batch, true)...)
	readBuf := make([]byte, 64<<10)
	clients := make([]net.Conn, 0, conns+1)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	open := func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		c.Write(body)
		if got := drainDecisions(c, batch, true, readBuf); got != batch {
			t.Fatalf("connection %d: %d/%d decisions", len(clients), got, batch)
		}
	}
	open() // the engine's first decision allocates what every later one reuses
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		open()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	stack := int64(after.StackInuse) - int64(before.StackInuse)
	per := (heap + stack) / conns
	t.Logf("per connection: %d B heap + %d B stack = %.1f KiB", heap/conns, stack/conns, float64(per)/1024)
	if per > bound {
		t.Errorf("a stream connection holds %.1f KiB, want ≤ %d KiB", float64(per)/1024, bound>>10)
	}
}

// BenchmarkStream drives a canned stream of 256 requests through
// ServeConn per iteration, on one connection, for each codec: the
// per-request cost of the stream layer around an engine that declines
// (and so writes nothing but the decision).
func BenchmarkStream(b *testing.B) {
	for _, frame := range []bool{true, false} {
		name := "ndjson"
		if frame {
			name = "frame"
		}
		b.Run(name, func(b *testing.B) { benchmarkStream(b, frame) })
	}
}

func benchmarkStream(b *testing.B, frame bool) {
	const batch = 256
	n := testNetwork()
	sched, err := onsite.NewScheduler(n, 20, onsite.WithCapacityEnforcement())
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 20})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if server, err := ln.Accept(); err == nil {
			NewStreamServer(e).ServeConn(server)
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	body := declinedStream(b, batch, frame)
	readBuf := make([]byte, 64<<10)
	if frame {
		client.Write(wire.AppendPreamble(nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Write(body)
		if got := drainDecisions(client, batch, frame, readBuf); got != batch {
			b.Fatalf("%d/%d decisions", got, batch)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/req")
	client.(*net.TCPConn).CloseWrite()
	<-done
}

// pipeConn is the server's end of a connection made of two net.Pipes, one
// each way: a net.Pipe has no half-close, and a client that has sent its
// last byte must still read the replies.
type pipeConn struct {
	net.Conn          // the replies' pipe
	in       net.Conn // the requests' pipe
}

func (c pipeConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c pipeConn) Close() error               { c.in.Close(); return c.Conn.Close() }

// checkReplies requires out to be what a stream connection may send in its
// protocol: decisions, then at most one terminal error, then nothing.
func checkReplies(t *testing.T, out []byte, frame bool) {
	t.Helper()
	for len(out) > 0 {
		var d wire.Decision
		terminal := false
		if frame {
			typ, payload, n, err := wire.SplitFrame(out)
			switch {
			case err != nil:
				t.Fatalf("reply %q: %v", out, err)
			case typ == wire.FrameDecision:
				err = wire.DecodeDecision(payload, &d)
			case typ == wire.FrameError:
				_, _, _, err = wire.DecodeError(payload)
				terminal = true
			default:
				err = fmt.Errorf("frame type %#x", typ)
			}
			if err != nil {
				t.Fatalf("reply frame %q: %v", out[:n], err)
			}
			out = out[n:]
		} else {
			line, rest, ok := bytes.Cut(out, []byte("\n"))
			if !ok {
				t.Fatalf("reply %q has no newline", out)
			}
			if wire.DecodeNDJSONDecision(line, &d) != nil {
				var env struct {
					Error struct{ Code int } `json:"error"`
				}
				if err := json.Unmarshal(line, &env); err != nil || env.Error.Code == 0 {
					t.Fatalf("reply line %q is neither a decision nor an error: %v", line, err)
				}
				terminal = true
			}
			out = rest
		}
		if terminal && len(out) > 0 {
			t.Fatalf("%q after the terminal error", out)
		}
	}
}

// FuzzServeConn feeds arbitrary bytes, in writes of chunk+1 bytes (which
// set where the batches close), to ServeConn over net.Pipes, whose client
// hangs up after reading closeAt reply bytes (255: it reads to the end).
// Nothing may panic, every reply read to the end must parse in the
// connection's protocol, no submission may stay queued or hold a worker
// token once ServeConn returns, and once the horizon has passed the ledger
// must hold no units.
func FuzzServeConn(f *testing.F) {
	const horizon = 8
	reqs := []AdmissionRequest{
		{VNF: 0, Reliability: 0.9, Duration: 3, Payment: 40},
		{VNF: 0, Reliability: 0.9, Arrival: 5, Duration: 4, Payment: 40},
		{VNF: 0, Reliability: 0.9, Duration: horizon, Payment: 0.25},
		{VNF: 0, Reliability: 0.995, Duration: 2, Payment: 40},
	}
	ndjson := ndjsonStreamBody(reqs)
	frames := frameStreamBody(f, reqs)
	preamble := len(wire.AppendPreamble(nil))
	for _, seed := range [][]byte{
		ndjson, frames,
		ndjson[:len(ndjson)-7], frames[:len(frames)-5], frames[:preamble+3],
		append(slices.Clone(frames[:preamble]), 0xff, 0xff, 0xff, 0x7f, wire.FrameRequest),
		append(slices.Clone(frames), 4, 0, 0, 0, wire.FrameRequest, 1, 2, 3),
		append(slices.Clone(frames), 2, 0, 0, 0, wire.FrameDecision, 0),
		[]byte("RVNX\x02"),
		append([]byte("\n \n"), ndjson...),
		append(slices.Clone(ndjson), "{\"vnf\":0,\"reliability\":0.9\n"...),
		append(slices.Clone(ndjson), "{\"vnf\":0,\"duration\":2,\"payment\":9e999}\n"...),
		{},
	} {
		f.Add(seed, uint8(255), uint8(255))
		f.Add(seed, uint8(6), uint8(255))
	}
	// The client hangs up before the first reply, and in the middle of a
	// four-request batch's replies.
	for _, body := range [][]byte{ndjson, frames} {
		f.Add(body, uint8(6), uint8(0))
		f.Add(body, uint8(255), uint8(20))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk, closeAt uint8) {
		e := newTestEngine(t, horizon)
		client, server := net.Pipe()
		replies, serverOut := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			NewStreamServer(e).ServeConn(pipeConn{Conn: serverOut, in: server})
		}()
		go func() {
			defer client.Close()
			for rest := data; len(rest) > 0; {
				n := min(len(rest), int(chunk)+1)
				if _, err := client.Write(rest[:n]); err != nil {
					return // the server has closed: a terminal error
				}
				rest = rest[n:]
			}
		}()
		var out []byte
		var err error
		if closeAt == 255 {
			out, err = io.ReadAll(replies)
		} else {
			_, err = io.ReadAll(io.LimitReader(replies, int64(closeAt)))
			replies.Close()
		}
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if got := e.ingest.streamPanics.Load(); got != 0 {
			t.Fatalf("%d decisions panicked", got)
		}
		if st := e.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
			t.Fatalf("ServeConn returned with %d tokens held and %d submissions queued", st.InFlight, st.QueueDepth)
		}
		checkReplies(t, out, len(data) > 0 && data[0] == wire.Magic[0])
		for i := 0; i < horizon; i++ {
			e.Tick()
		}
		for j := range e.network.Cloudlets {
			for slot := 1; slot <= horizon; slot++ {
				if used := e.ledger.Used(j, slot); used != 0 {
					t.Fatalf("cloudlet %d slot %d holds %d units after the horizon", j, slot, used)
				}
			}
		}
	})
}
