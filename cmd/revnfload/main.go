// Command revnfload replays a workload trace against a running revnfd
// and reports achieved throughput, admission counts, and decision
// latency tails. It speaks all three ingress protocols: one HTTP POST
// per request (-proto json), and the persistent streaming protocols
// (-proto ndjson|frame) against revnfd's -stream-listen port.
//
// Usage:
//
//	revnfload -target http://127.0.0.1:8080 -requests 2000 -concurrency 16
//	revnfload -target http://127.0.0.1:8080 -rate 500 -requests 1000
//	revnfload -proto frame -stream-target 127.0.0.1:8081 -conns 4 -streams 256
//	revnfload -proto ndjson -requests 100000 -json   # machine-readable summary
//
// The trace is drawn from the same generator as revnfd, so matching
// -topology/-cloudlets/-horizon/-seed flags replay requests sized for
// the network the daemon is serving. By default requests keep their
// generated arrival slots (the daemon schedules future windows); -now
// rebases every request onto the daemon's current slot instead.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"revnf/internal/experiments"
	"revnf/internal/wire"
	"revnf/internal/workload"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "revnfload:", err)
		os.Exit(1)
	}
}

type wireRequest struct {
	VNF         int     `json:"vnf"`
	Reliability float64 `json:"reliability"`
	Arrival     int     `json:"arrival,omitempty"`
	Duration    int     `json:"duration"`
	Payment     float64 `json:"payment"`
}

type wireDecision struct {
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason"`
}

// result is one request's outcome as observed by the client.
type result struct {
	status  int
	decided wireDecision
	latency time.Duration
	err     error
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("revnfload", flag.ContinueOnError)
	var (
		target       = fs.String("target", "http://127.0.0.1:8080", "revnfd base URL (HTTP API; also used by -wait)")
		streamTarget = fs.String("stream-target", "127.0.0.1:8081", "revnfd -stream-listen address for -proto ndjson|frame")
		proto        = fs.String("proto", "json", "ingress protocol: json (one POST per request), ndjson, or frame (persistent streams)")
		requests     = fs.Int("requests", 1000, "request count when generating a trace")
		rate         = fs.Float64("rate", 0, "offered load in requests/second (0 = unthrottled)")
		concurrency  = fs.Int("concurrency", 8, "concurrent in-flight requests (-proto json)")
		conns        = fs.Int("conns", 1, "stream connections (-proto ndjson|frame)")
		streams      = fs.Int("streams", 256, "pipelined in-flight requests per stream connection (-proto ndjson|frame)")
		topo         = fs.String("topology", "", "embedded topology name")
		cloudlets    = fs.Int("cloudlets", 0, "cloudlet count")
		horizon      = fs.Int("horizon", 0, "time horizon T in slots")
		seed         = fs.Int64("seed", 1, "trace generation seed")
		instance     = fs.String("instance", "", "load instance JSON instead of generating")
		now          = fs.Bool("now", false, "drop generated arrivals so every request targets the current slot")
		jsonOut      = fs.Bool("json", false, "emit the summary as one JSON object instead of text")
		wait         = fs.Duration("wait", 0, "poll <target>/healthz for up to this long before replaying")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("concurrency must be at least 1")
	}
	if *conns < 1 || *streams < 1 {
		return fmt.Errorf("conns and streams must be at least 1")
	}
	switch *proto {
	case "json", "ndjson", "frame":
	default:
		return fmt.Errorf("unknown -proto %q (want json|ndjson|frame)", *proto)
	}

	inst, err := loadTrace(*instance, *topo, *cloudlets, *requests, *horizon, *seed)
	if err != nil {
		return err
	}
	reqs := make([]wireRequest, len(inst.Trace))
	for i, r := range inst.Trace {
		reqs[i] = wireRequest{VNF: r.VNF, Reliability: r.Reliability,
			Arrival: r.Arrival, Duration: r.Duration, Payment: r.Payment}
		if *now {
			reqs[i].Arrival = 0
		}
	}

	if *wait > 0 {
		if err := waitReady(ctx, *target, *wait); err != nil {
			return err
		}
	}

	var results []result
	var elapsed time.Duration
	if *proto == "json" {
		results, elapsed, err = replay(ctx, *target, reqs, *rate, *concurrency)
	} else {
		results, elapsed, err = replayStream(ctx, *streamTarget, *proto, reqs, *rate, *conns, *streams)
	}
	if err != nil {
		return err
	}
	s, reasons := summarize(*proto, *conns, results, elapsed)
	if *jsonOut {
		enc := json.NewEncoder(out)
		return enc.Encode(s)
	}
	report(out, s, reasons)
	return nil
}

// waitReady polls GET <target>/healthz until it answers 200, the budget
// expires, or the context is canceled.
func waitReady(ctx context.Context, target string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("target %s not ready after %s", target, budget)
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// feed paces the request trace onto jobs at rate requests/second
// (unthrottled when rate <= 0), then closes the channel.
func feed(ctx context.Context, jobs chan<- wireRequest, reqs []wireRequest, rate float64, start time.Time) {
	defer close(jobs)
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	next := start
	for _, req := range reqs {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			next = next.Add(interval)
		}
		select {
		case jobs <- req:
		case <-ctx.Done():
			return
		}
	}
}

// replay streams the wire requests through a worker pool of HTTP
// posters, pacing the feed at rate requests/second when rate > 0.
func replay(ctx context.Context, target string, reqs []wireRequest, rate float64, concurrency int) ([]result, time.Duration, error) {
	// The default transport caps idle connections per host at 2, which
	// would churn a fresh TCP connection per request at higher
	// concurrency and dominate the measurement.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
		},
	}
	defer client.CloseIdleConnections()
	jobs := make(chan wireRequest)
	results := make([]result, 0, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				r := post(ctx, client, target, req)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	feed(ctx, jobs, reqs, rate, start)
	wg.Wait()
	return results, time.Since(start), ctx.Err()
}

// replayStream drives the persistent streaming protocols: conns
// connections each pipeline up to window requests, writing from a shared
// paced feed and reading decisions in order off the same connection.
func replayStream(ctx context.Context, target, proto string, reqs []wireRequest, rate float64, conns, window int) ([]result, time.Duration, error) {
	jobs := make(chan wireRequest)
	results := make([]result, 0, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup

	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := streamConn(ctx, target, proto, jobs, window)
			mu.Lock()
			results = append(results, rs...)
			mu.Unlock()
		}()
	}
	feed(ctx, jobs, reqs, rate, start)
	wg.Wait()
	return results, time.Since(start), ctx.Err()
}

// streamConn runs one persistent connection: a writer goroutine encodes
// requests from jobs (flushing whenever the feed goes momentarily idle,
// mirroring the server's adaptive batcher) while the calling goroutine
// reads decisions in request order. The window semaphore bounds
// pipelined in-flight requests; sendTimes carries each request's send
// timestamp to the reader in FIFO order.
func streamConn(ctx context.Context, target, proto string, jobs <-chan wireRequest, window int) []result {
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return []result{{err: err}}
	}
	defer conn.Close()

	frame := proto == "frame"
	sem := make(chan struct{}, window)
	sendTimes := make(chan time.Time, window)
	writeErr := make(chan error, 1)

	go func() {
		defer close(sendTimes)
		bw := bufio.NewWriterSize(conn, 64<<10)
		if frame {
			if _, err := bw.Write(wire.AppendPreamble(nil)); err != nil {
				writeErr <- err
				return
			}
		}
		var scratch []byte
		for {
			var req wireRequest
			var ok bool
			select {
			case req, ok = <-jobs:
			case <-ctx.Done():
				ok = false
			default:
				// Feed momentarily idle: flush what we have, then block.
				if err := bw.Flush(); err != nil {
					writeErr <- err
					return
				}
				select {
				case req, ok = <-jobs:
				case <-ctx.Done():
					ok = false
				}
			}
			if !ok {
				break
			}
			select {
			case sem <- struct{}{}: // pipelining window
			case <-ctx.Done():
				return
			}
			wr := wire.Request{VNF: req.VNF, Arrival: req.Arrival, Duration: req.Duration,
				Reliability: req.Reliability, Payment: req.Payment}
			if frame {
				var encErr error
				scratch, encErr = wire.AppendRequestFrame(scratch[:0], &wr)
				if encErr != nil {
					writeErr <- encErr
					return
				}
			} else {
				scratch = wire.AppendNDJSONRequest(scratch[:0], &wr)
			}
			sendTimes <- time.Now()
			if _, err := bw.Write(scratch); err != nil {
				writeErr <- err
				return
			}
		}
		if err := bw.Flush(); err != nil {
			writeErr <- err
			return
		}
		// Half-close tells the server the request stream is complete; the
		// decision stream keeps flowing the other way.
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()

	var results []result
	br := bufio.NewReaderSize(conn, 64<<10)
	var fr *wire.FrameReader
	if frame {
		fr = wire.NewFrameReader(br)
	}
	for t0 := range sendTimes {
		r := result{status: http.StatusOK, latency: 0}
		var d wire.Decision
		var derr error
		if frame {
			d, derr = readFrameDecision(fr)
		} else {
			d, derr = readNDJSONDecision(br)
		}
		r.latency = time.Since(t0)
		if derr != nil {
			r.status = 0
			r.err = derr
		} else {
			r.decided = wireDecision{Admitted: d.Admitted, Reason: d.Reason.Reason()}
		}
		<-sem
		results = append(results, r)
		if derr != nil {
			// The stream is broken or terminally errored; everything still
			// in flight is lost.
			for range sendTimes {
				results = append(results, result{err: derr})
				<-sem
			}
			break
		}
	}
	select {
	case err := <-writeErr:
		results = append(results, result{err: err})
	default:
	}
	return results
}

func readFrameDecision(fr *wire.FrameReader) (wire.Decision, error) {
	var d wire.Decision
	typ, payload, err := fr.Next()
	if err != nil {
		return d, err
	}
	switch typ {
	case wire.FrameDecision:
		err = wire.DecodeDecision(payload, &d)
		return d, err
	case wire.FrameError:
		code, reason, detail, derr := wire.DecodeError(payload)
		if derr != nil {
			return d, derr
		}
		return d, fmt.Errorf("server error %d/%s: %s", code, reason.Reason(), detail)
	default:
		return d, fmt.Errorf("unexpected frame type %#x", typ)
	}
}

func readNDJSONDecision(br *bufio.Reader) (wire.Decision, error) {
	var d wire.Decision
	line, err := br.ReadBytes('\n')
	if err != nil && (err != io.EOF || len(bytes.TrimSpace(line)) == 0) {
		return d, err
	}
	if derr := wire.DecodeNDJSONDecision(line, &d); derr != nil {
		// Not a decision: maybe a terminal error record.
		var env struct {
			Error struct {
				Code   int    `json:"code"`
				Reason string `json:"reason"`
				Detail string `json:"detail"`
			} `json:"error"`
		}
		if jerr := json.Unmarshal(line, &env); jerr == nil && env.Error.Code != 0 {
			return d, fmt.Errorf("server error %d/%s: %s", env.Error.Code, env.Error.Reason, env.Error.Detail)
		}
		return d, derr
	}
	return d, nil
}

func post(ctx context.Context, client *http.Client, target string, req wireRequest) result {
	body, err := json.Marshal(req)
	if err != nil {
		return result{err: err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/requests", bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(hreq)
	lat := time.Since(t0)
	if err != nil {
		return result{err: err, latency: lat}
	}
	defer func() {
		_ = resp.Body.Close() // body already consumed below
	}()
	r := result{status: resp.StatusCode, latency: lat}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&r.decided); err != nil {
			r.err = err
		}
	}
	// Drain to EOF so the connection goes back to the keep-alive pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return r
}

// summary is the replay outcome; with -json it is emitted verbatim as
// one JSON object.
type summary struct {
	Proto           string  `json:"proto"`
	Conns           int     `json:"conns"`
	Requests        int     `json:"requests"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	Decided         int     `json:"decided"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	Admitted        int     `json:"admitted"`
	Rejected        int     `json:"rejected"`
	Throttled       int     `json:"throttled"`
	Failed          int     `json:"failed"`
	P50Ms           float64 `json:"p50_ms"`
	P95Ms           float64 `json:"p95_ms"`
	P99Ms           float64 `json:"p99_ms"`
	MaxMs           float64 `json:"max_ms"`
}

func summarize(proto string, conns int, results []result, elapsed time.Duration) (summary, map[string]int) {
	var admitted, rejected, backpressured, failed int
	reasons := map[string]int{}
	latencies := make([]time.Duration, 0, len(results))
	for _, r := range results {
		switch {
		case r.err != nil:
			failed++
			continue
		case r.status == http.StatusServiceUnavailable,
			r.status == http.StatusOK && r.decided.Reason == "queue-full":
			// HTTP surfaces backpressure as 503; streams as a queue-full
			// decision record. Same account either way.
			backpressured++
		case r.status == http.StatusOK && r.decided.Admitted:
			admitted++
		case r.status == http.StatusOK:
			rejected++
			reasons[r.decided.Reason]++
		default:
			failed++
		}
		latencies = append(latencies, r.latency)
	}
	decided := admitted + rejected
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	s := summary{
		Proto:      proto,
		Conns:      conns,
		Requests:   len(results),
		ElapsedSec: elapsed.Seconds(),
		Decided:    decided,
		Admitted:   admitted,
		Rejected:   rejected,
		Throttled:  backpressured,
		Failed:     failed,
		P50Ms:      ms(quantile(latencies, 0.50)),
		P95Ms:      ms(quantile(latencies, 0.95)),
		P99Ms:      ms(quantile(latencies, 0.99)),
	}
	if proto == "json" {
		s.Conns = 0 // connection pooling is the transport's business
	}
	if len(latencies) > 0 {
		s.MaxMs = ms(latencies[len(latencies)-1])
	}
	if elapsed > 0 {
		s.DecisionsPerSec = float64(decided) / elapsed.Seconds()
	}
	return s, reasons
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func report(out io.Writer, s summary, reasons map[string]int) {
	fmt.Fprintf(out, "requests:    %d in %s (proto %s)\n", s.Requests,
		time.Duration(s.ElapsedSec*float64(time.Second)).Round(time.Millisecond), s.Proto)
	if s.ElapsedSec > 0 {
		fmt.Fprintf(out, "throughput:  %.0f decisions/sec (%d decided, p99 %.3fms)\n",
			s.DecisionsPerSec, s.Decided, s.P99Ms)
	}
	fmt.Fprintf(out, "admitted:    %d\n", s.Admitted)
	fmt.Fprintf(out, "rejected:    %d %v\n", s.Rejected, reasonList(reasons))
	fmt.Fprintf(out, "throttled:   %d (backpressure)\n", s.Throttled)
	if s.Failed > 0 {
		fmt.Fprintf(out, "failed:      %d (transport or decode errors)\n", s.Failed)
	}
	fmt.Fprintf(out, "latency:     p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func reasonList(reasons map[string]int) string {
	if len(reasons) == 0 {
		return ""
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("(")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d", k, reasons[k])
	}
	b.WriteString(")")
	return b.String()
}

func loadTrace(path, topo string, cloudlets, requests, horizon int, seed int64) (*workload.Instance, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open instance: %w", err)
		}
		defer func() {
			_ = f.Close() // read-only descriptor; nothing to report
		}()
		return workload.LoadInstance(f)
	}
	setup := experiments.DefaultSetup()
	if topo != "" {
		setup.Topology = topo
	}
	if cloudlets > 0 {
		setup.Cloudlets = cloudlets
	}
	if horizon > 0 {
		setup.Horizon = horizon
	}
	return setup.Instance(requests, setup.H, setup.K, seed)
}
