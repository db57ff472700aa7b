package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"revnf/internal/core"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/trace"
)

func newTestServer(t *testing.T, horizon int, opts ...func(*Config)) (*Engine, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, horizon, opts...)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return e, srv
}

func postRequest(t *testing.T, url string, body string) (*http.Response, decisionDTO) {
	t.Helper()
	resp, err := http.Post(url+"/v1/requests", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/requests: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var dec decisionDTO
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
			t.Fatalf("decode decision: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp, dec
}

func TestHTTPAdmitRejectRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, 20)
	resp, dec := postRequest(t, srv.URL, `{"vnf":0,"reliability":0.9,"duration":3,"payment":12.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !dec.Admitted || dec.Placement == nil {
		t.Fatalf("decision = %+v, want admitted with placement", dec)
	}
	if dec.Placement.Scheme != "on-site" || len(dec.Placement.Assignments) != 1 {
		t.Errorf("placement = %+v", dec.Placement)
	}
	if dec.Placement.Availability < 0.9 {
		t.Errorf("availability %v below requirement", dec.Placement.Availability)
	}
	// Infeasible requirement: HTTP 200, admitted=false, reason=declined.
	resp, dec = postRequest(t, srv.URL, `{"vnf":0,"reliability":0.995,"duration":3,"payment":12.5}`)
	if resp.StatusCode != http.StatusOK || dec.Admitted || dec.Reason != ReasonDeclined {
		t.Errorf("status %d decision %+v, want 200/declined", resp.StatusCode, dec)
	}
}

func TestHTTPBadRequestBody(t *testing.T) {
	_, srv := newTestServer(t, 20)
	for _, body := range []string{`{not json`, `{"vnf":0,"bogus_field":1}`} {
		resp, _ := postRequest(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPBodyBound: a body over the stream path's line bound is refused
// with 413 and the invalid envelope before it reaches the engine, and a
// valid request padded to just under the bound is still decided. It drives
// the handler directly: over a socket the server waits half a second before
// closing the connection of a refused body.
func TestHTTPBodyBound(t *testing.T) {
	e := newTestEngine(t, 20)
	h := NewHandler(e)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/requests", strings.NewReader(body)))
		return rec
	}
	decisions := func() uint64 { s := e.Stats(); return s.Admitted + s.RejectedTotal() }

	rec := post("1" + strings.Repeat("0", 1<<20))
	var env errorDTO
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || env.Code != rec.Code || env.Reason != ReasonInvalid || env.Detail == "" {
		t.Errorf("1 MiB body: status %d envelope %+v, want 413/invalid with detail", rec.Code, env)
	}
	if got := decisions(); got != 0 {
		t.Errorf("1 MiB body: %d decisions counted, want 0", got)
	}

	body := `{"vnf":0,"reliability":0.9,"duration":3,"payment":12.5}`
	rec = post(strings.Repeat(" ", streamBufSize-len(body)-1) + body)
	var dec decisionDTO
	if err := json.NewDecoder(rec.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !dec.Admitted {
		t.Errorf("padded request: status %d decision %+v, want 200/admitted", rec.Code, dec)
	}
	if got := decisions(); got != 1 {
		t.Errorf("padded request: %d decisions counted, want 1", got)
	}
}

func TestHTTPPlacementLookup(t *testing.T) {
	_, srv := newTestServer(t, 20)
	_, dec := postRequest(t, srv.URL, `{"vnf":0,"reliability":0.9,"duration":4,"payment":7}`)
	if !dec.Admitted {
		t.Fatalf("not admitted: %+v", dec)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/placements/%d", srv.URL, dec.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var rec placementRecordDTO
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != dec.ID || rec.State != string(StateActive) || rec.Duration != 4 {
		t.Errorf("record = %+v", rec)
	}
	for _, path := range []string{"/v1/placements/9999", "/v1/placements/abc"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		want := http.StatusNotFound
		if strings.HasSuffix(path, "abc") {
			want = http.StatusBadRequest
		}
		if resp.StatusCode != want {
			t.Errorf("GET %s: status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestHTTPCloudlets(t *testing.T) {
	e, srv := newTestServer(t, 10)
	_, dec := postRequest(t, srv.URL, `{"vnf":0,"reliability":0.9,"duration":2,"payment":7}`)
	if !dec.Admitted {
		t.Fatalf("not admitted: %+v", dec)
	}
	e.Tick() // slot 2
	resp, err := http.Get(srv.URL + "/v1/cloudlets")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out struct {
		Slot      int              `json:"slot"`
		Horizon   int              `json:"horizon"`
		Cloudlets []CloudletStatus `json:"cloudlets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Slot != 2 || out.Horizon != 10 || len(out.Cloudlets) != 2 {
		t.Fatalf("out = %+v", out)
	}
	j := dec.Placement.Assignments[0].Cloudlet
	cl := out.Cloudlets[j]
	if cl.FromSlot != 2 || len(cl.Residual) != 9 {
		t.Fatalf("cloudlet %d status = %+v", j, cl)
	}
	if cl.Residual[0] != cl.Capacity-4 { // slot 2 still inside the window
		t.Errorf("slot-2 residual = %d, want %d", cl.Residual[0], cl.Capacity-4)
	}
	if cl.Residual[1] != cl.Capacity { // slot 3 is past the window
		t.Errorf("slot-3 residual = %d, want %d", cl.Residual[1], cl.Capacity)
	}
}

func TestHTTPHealthz(t *testing.T) {
	e, srv := newTestServer(t, 10)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPMetricsScrape(t *testing.T) {
	engine, srv := newTestServer(t, 20)
	postRequest(t, srv.URL, `{"vnf":0,"reliability":0.9,"duration":3,"payment":12.5}`)
	postRequest(t, srv.URL, `{"vnf":0,"reliability":0.995,"duration":3,"payment":1}`)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"revnfd_admissions_total 1\n",
		`revnfd_rejections_total{reason="declined"} 1` + "\n",
		"revnfd_revenue_total 12.5\n",
		"revnfd_current_slot 1\n",
		"revnfd_active_placements 1\n",
		"revnfd_placements_filed 1\n",
		// One admission opens one history chunk with one block's row.
		"revnfd_placement_book_bytes " + strconv.FormatFloat(
			float64(historyChunk+unsafe.Sizeof(historyBlock{})+unsafe.Sizeof(historySpan{})), 'g', -1, 64) + "\n",
		// Nothing spills before a second chunk opens, and the clock is frozen.
		"revnfd_placement_history_spilled_bytes 0\n",
		"revnfd_placement_history_spill_errors_total 0\n",
		// Nothing is refiled or filed behind a sealed block.
		"revnfd_placement_history_late_ids 0\n",
		"revnfd_clock_panics_total 0\n",
		`revnfd_cloudlet_utilization{cloudlet="0"}`,
		// One observation per SubmitBatch call: both POSTs.
		"revnfd_admission_latency_seconds_count 2\n",
		"revnfd_queue_capacity 256\n",
		"revnfd_backup_groups 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every load is a hit, a refresh or a copy. On the engine's one worker
	// token the first decision copies; the second asks for the same window
	// after the first booked a row, so it refreshes.
	views := 0.0
	for _, result := range []string{"hit", "refresh", "copy"} {
		prefix := `revnfd_ledger_view_loads_total{result="` + result + `"} `
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Fatalf("metrics missing %q", prefix)
		}
		line := out[i+len(prefix):]
		v, err := strconv.ParseFloat(line[:strings.IndexByte(line, '\n')], 64)
		if err != nil {
			t.Fatal(err)
		}
		if result != "hit" && v != 1 {
			t.Errorf("%s loads = %v, want 1", result, v)
		}
		views += v
	}
	if loads := float64(engine.Stats().ViewLoads); views != loads {
		t.Errorf("view loads by result sum to %v, Stats.ViewLoads = %v", views, loads)
	}
	// A shared admission holds one backup group until its window ends.
	shared, sharedSrv := newTestServer(t, 20, withSharedScheduler(t, 2))
	if _, dec := postRequest(t, sharedSrv.URL, `{"vnf":0,"reliability":0.9,"duration":2,"payment":12.5}`); !dec.Admitted {
		t.Fatalf("shared request not admitted: %+v", dec)
	}
	for _, want := range []int{1, 1, 0} {
		if got := shared.Stats().BackupGroups; got != want {
			t.Errorf("slot %d: Stats.BackupGroups = %d, want %d", shared.Slot(), got, want)
		}
		if scrape := scrapeMetrics(t, sharedSrv.URL); !strings.Contains(scrape, "revnfd_backup_groups "+strconv.Itoa(want)+"\n") {
			t.Errorf("slot %d: metrics missing revnfd_backup_groups %d", shared.Slot(), want)
		}
		shared.Tick()
	}
	// The exposition must parse line by line: every non-comment line is
	// "name{labels} value" with a float value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable sample line %q", line)
		}
	}
}

// scrapeMetrics GETs /metrics and returns the body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestHTTPBackpressure503 floods a 1-slot queue and requires at least one
// 503 with Retry-After while every accepted request still gets decided.
func TestHTTPBackpressure503(t *testing.T) {
	_, srv := newTestServer(t, 20, func(c *Config) { c.QueueSize = 1 })
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/requests", "application/json",
				bytes.NewReader([]byte(`{"vnf":0,"reliability":0.9,"duration":1,"payment":2}`)))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			_, _ = io.Copy(io.Discard, resp.Body)
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
		}()
	}
	wg.Wait()
	if codes[http.StatusOK] == 0 {
		t.Errorf("no request decided: %v", codes)
	}
	if codes[http.StatusOK]+codes[http.StatusServiceUnavailable] != 64 {
		t.Errorf("unexpected status mix: %v", codes)
	}
}

// TestHTTPShutdownDrainsInFlight starts slow-moving submissions, begins
// shutdown, and verifies queued requests get decisions while later ones
// get 503.
func TestHTTPShutdownDrainsInFlight(t *testing.T) {
	e, srv := newTestServer(t, 20, func(c *Config) { c.QueueSize = 128 })
	const n = 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/requests", "application/json",
				bytes.NewReader([]byte(`{"vnf":0,"reliability":0.9,"duration":1,"payment":2}`)))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			_, _ = io.Copy(io.Discard, resp.Body)
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if codes[http.StatusOK]+codes[http.StatusServiceUnavailable] != n {
		t.Errorf("status mix %v does not account for %d requests", codes, n)
	}
	s := e.Stats()
	if got := int(s.Admitted + s.RejectedTotal()); got+codes[http.StatusServiceUnavailable] < n {
		t.Errorf("decisions %d + 503s %d < %d", got, codes[http.StatusServiceUnavailable], n)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t, 10)
	resp, err := http.Get(srv.URL + "/v1/requests")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/requests = %d, want 405", resp.StatusCode)
	}
}

// getError performs a request and decodes the v1 error envelope.
func getError(t *testing.T, method, url string, body io.Reader) (int, errorDTO) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("%s %s: error content type = %q, want JSON envelope", method, url, ct)
	}
	var env errorDTO
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: decode error envelope: %v", method, url, err)
	}
	return resp.StatusCode, env
}

// TestHTTPErrorEnvelope pins the unified {"code","reason","detail"} error
// shape across endpoints: reason codes come from the trace.Reason enum and
// code always repeats the HTTP status.
func TestHTTPErrorEnvelope(t *testing.T) {
	_, srv := newTestServer(t, 20)
	cases := []struct {
		method, path string
		body         string
		status       int
		reason       string
	}{
		{"POST", "/v1/requests", `{not json`, http.StatusBadRequest, ReasonInvalid},
		{"GET", "/v1/placements/abc", "", http.StatusBadRequest, ReasonInvalid},
		{"GET", "/v1/placements/9999", "", http.StatusNotFound, string(trace.ReasonNotFound)},
		{"GET", "/v1/decisions/abc/trace", "", http.StatusBadRequest, ReasonInvalid},
		// Tracing is off for this server: the endpoint 404s with detail.
		{"GET", "/v1/decisions/0/trace", "", http.StatusNotFound, string(trace.ReasonNotFound)},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		status, env := getError(t, tc.method, srv.URL+tc.path, body)
		if status != tc.status || env.Code != tc.status || env.Reason != tc.reason {
			t.Errorf("%s %s: status %d envelope %+v, want %d/%s",
				tc.method, tc.path, status, env, tc.status, tc.reason)
		}
		if env.Detail == "" {
			t.Errorf("%s %s: envelope missing detail", tc.method, tc.path)
		}
	}
}

// TestHTTPDecisionTrace wires a trace store into the engine, submits one
// admitted and one declined request, and reads both decisions back through
// GET /v1/decisions/{id}/trace: the scheduler attempt and the engine
// outcome must be merged into one trace, and the trace counters must show
// up on /metrics.
func TestHTTPDecisionTrace(t *testing.T) {
	store := trace.NewStore(16)
	n := testNetwork()
	sched, err := onsite.NewScheduler(n, 20,
		onsite.WithCapacityEnforcement(), onsite.WithRecorder(store))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 20, Traces: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)

	_, admitted := postRequest(t, srv.URL, `{"vnf":0,"reliability":0.9,"duration":3,"payment":12.5}`)
	if !admitted.Admitted {
		t.Fatalf("decision = %+v, want admitted", admitted)
	}
	_, declined := postRequest(t, srv.URL, `{"vnf":0,"reliability":0.995,"duration":3,"payment":12.5}`)
	if declined.Admitted || declined.Reason != ReasonDeclined {
		t.Fatalf("decision = %+v, want declined", declined)
	}

	var dt trace.DecisionTrace
	resp, err := http.Get(fmt.Sprintf("%s/v1/decisions/%d/trace", srv.URL, admitted.ID))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dt); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if dt.Request != admitted.ID || !dt.Admitted || dt.Outcome != trace.ReasonAdmitted {
		t.Errorf("trace = %+v, want admitted outcome for %d", dt, admitted.ID)
	}
	if len(dt.Attempts) != 1 || !dt.Attempts[0].Admit || dt.Attempts[0].Attempt != 1 {
		t.Errorf("attempts = %+v, want one admitting attempt", dt.Attempts)
	}
	if len(dt.Assignments) == 0 {
		t.Errorf("admitted trace has no assignments: %+v", dt)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/decisions/%d/trace", srv.URL, declined.ID))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dt); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if dt.Admitted || dt.Outcome != trace.ReasonDeclined {
		t.Errorf("declined trace = %+v, want declined outcome", dt)
	}
	if dt.FinalReason() != trace.ReasonDeclined {
		t.Errorf("FinalReason = %q, want declined", dt.FinalReason())
	}
	if len(dt.Attempts) != 1 || dt.Attempts[0].Admit || dt.Attempts[0].Reason == "" {
		t.Errorf("declined attempt = %+v, want scheduler-level reason", dt.Attempts)
	}

	// Unknown ID: envelope 404 with the not-sampled detail.
	status, env := getError(t, "GET", srv.URL+"/v1/decisions/424242/trace", nil)
	if status != http.StatusNotFound || env.Reason != string(trace.ReasonNotFound) {
		t.Errorf("unknown trace: %d %+v", status, env)
	}

	// Trace counters and the λ gauge ride the same scrape.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for _, want := range []string{
		"revnfd_trace_recorded_total",
		"revnfd_trace_store_capacity 16\n",
		`revnfd_dual_price{cloudlet="0",window="current"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHandlerWithOffsiteScheduler exercises the serve layer against
// Algorithm 2 to confirm scheme-agnosticism. With r(f)=0.8 the single
// best cloudlet gives 0.99·0.8 = 0.792 < 0.9, so the off-site placement
// must span both cloudlets.
func TestHandlerWithOffsiteScheduler(t *testing.T) {
	n := testNetwork()
	sched, err := offsite.NewScheduler(n, 20)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	_, dec := postRequest(t, srv.URL, `{"vnf":0,"reliability":0.9,"duration":2,"payment":9}`)
	if !dec.Admitted || dec.Placement == nil {
		t.Fatalf("off-site decision = %+v, want admitted", dec)
	}
	if dec.Placement.Scheme != "off-site" || len(dec.Placement.Assignments) != 2 {
		t.Errorf("off-site placement = %+v, want both cloudlets", dec.Placement)
	}
}

// TestHTTPTransportErrorEnvelopes pins the v1 error envelope on the three
// transport-level rejection paths of POST /v1/requests: engine shutdown,
// client cancellation, and a full ingest queue. The streaming ingest maps
// the same reasons onto its terminal error records, so this shape is
// load-bearing for both ingress paths.
func TestHTTPTransportErrorEnvelopes(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		e, srv := newTestServer(t, 20)
		shutdownEngine(t, e)
		status, env := getError(t, "POST", srv.URL+"/v1/requests",
			strings.NewReader(`{"vnf":0,"reliability":0.9,"duration":1,"payment":2}`))
		if status != http.StatusServiceUnavailable || env.Code != 503 || env.Reason != ReasonClosed {
			t.Fatalf("status %d envelope %+v, want 503/closed", status, env)
		}
		if env.Detail == "" {
			t.Error("envelope missing detail")
		}
	})

	t.Run("canceled", func(t *testing.T) {
		// A canceled client context never produces a readable response over
		// a real socket, so exercise the handler directly.
		e := newTestEngine(t, 20)
		h := NewHandler(e)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest("POST", "/v1/requests",
			strings.NewReader(`{"vnf":0,"reliability":0.9,"duration":1,"payment":2}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", rec.Code)
		}
		var env errorDTO
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Code != 503 || env.Reason != ReasonCanceled || env.Detail == "" {
			t.Fatalf("envelope = %+v, want 503/canceled with detail", env)
		}
	})

	t.Run("queue full", func(t *testing.T) {
		// A gated scheduler pins the one worker token inside its first
		// decision; with a one-slot queue, the third request then finds the
		// waiting bound deterministically reached.
		n := testNetwork()
		inner, err := onsite.NewScheduler(n, 20, onsite.WithCapacityEnforcement())
		if err != nil {
			t.Fatal(err)
		}
		gate := &gatedScheduler{Scheduler: inner,
			entered: make(chan struct{}, 4), release: make(chan struct{})}
		e, err := New(Config{Network: n, Scheduler: gate, Horizon: 20, QueueSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(e))
		t.Cleanup(srv.Close)

		body := `{"vnf":0,"reliability":0.9,"duration":1,"payment":2}`
		var wg sync.WaitGroup
		postOK := func() {
			defer wg.Done()
			resp, dec := postRequest(t, srv.URL, body)
			if resp.StatusCode != http.StatusOK || !dec.Admitted {
				t.Errorf("gated request: status %d decision %+v", resp.StatusCode, dec)
			}
		}
		// Strictly sequence the setup: request A is inside Propose before
		// request B is sent, and B is waiting for the token before the probe
		// fires.
		wg.Add(1)
		go postOK()
		<-gate.entered
		wg.Add(1)
		go postOK()
		waitForQueueDepth(t, e, 2)

		status, env := getError(t, "POST", srv.URL+"/v1/requests", strings.NewReader(body))
		if status != http.StatusServiceUnavailable || env.Code != 503 ||
			env.Reason != ReasonQueueFull || env.Detail == "" {
			t.Fatalf("status %d envelope %+v, want 503/queue-full with detail", status, env)
		}

		close(gate.release)
		<-gate.entered
		wg.Wait()
		shutdownEngine(t, e)
		if got := e.Stats().Rejections[ReasonQueueFull]; got != 1 {
			t.Errorf("queue-full rejections = %d, want 1", got)
		}
	})
}

// panickyScheduler panics inside its first Propose.
type panickyScheduler struct {
	core.Scheduler
	panicked bool
}

func (p *panickyScheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	if !p.panicked {
		p.panicked = true
		panic("scheduler bug")
	}
	return p.Scheduler.Propose(req, view)
}

// TestHTTPPanicReleasesToken: net/http recovers a handler's panic, so a
// decision that panics must give back its worker token, its waiting slot
// and its inflight mark on the way out — at one token a leaked token would
// leave every later request waiting until its context ended, and Shutdown
// draining forever.
func TestHTTPPanicReleasesToken(t *testing.T) {
	n := testNetwork()
	inner, err := onsite.NewScheduler(n, 20, onsite.WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: &panickyScheduler{Scheduler: inner}, Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(NewHandler(e))
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
	srv.Start()
	t.Cleanup(srv.Close)

	body := `{"vnf":0,"reliability":0.9,"duration":1,"payment":2}`
	if resp, err := http.Post(srv.URL+"/v1/requests", "application/json", strings.NewReader(body)); err == nil {
		_ = resp.Body.Close()
		t.Fatalf("the panicking request was answered with status %d", resp.StatusCode)
	}
	resp, dec := postRequest(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK || !dec.Admitted {
		t.Fatalf("request after the panic: status %d decision %+v, want admitted", resp.StatusCode, dec)
	}
	if s := e.Stats(); s.InFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("InFlight = %d, QueueDepth = %d after the panic, want 0 and 0", s.InFlight, s.QueueDepth)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown after the panic: %v", err)
	}
}

// gatedScheduler blocks every Propose until release is closed, signaling
// each entry on entered; it makes queue-depth scenarios deterministic.
type gatedScheduler struct {
	core.Scheduler
	entered chan struct{}
	release chan struct{}
}

func (g *gatedScheduler) Propose(req core.Request, view core.CapacityView) (core.Placement, bool) {
	g.entered <- struct{}{}
	<-g.release
	return g.Scheduler.Propose(req, view)
}

// waitForQueueDepth polls the engine's waiting count — submissions past the
// gate's bound, deciding or waiting for a token — until it reaches depth
// (or fails the test after a second).
func waitForQueueDepth(t *testing.T, e *Engine, depth int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for int(e.waiting.Load()) < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", depth, e.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
