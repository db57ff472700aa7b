package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read daemon output while run is writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a stop function that triggers graceful shutdown and waits.
func startDaemon(t *testing.T, extra ...string) (string, *syncBuffer, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	args := append([]string{"-addr", "127.0.0.1:0", "-slot", "0", "-drain", "5s"}, extra...)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()

	deadline := time.Now().Add(5 * time.Second)
	var url string
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			url = m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v (output %q)", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if url == "" {
		cancel()
		t.Fatalf("daemon never reported its address: %q", out.String())
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon did not stop")
		}
	}
	t.Cleanup(func() { _ = stop() })
	return url, out, stop
}

func TestDaemonServesAndShutsDown(t *testing.T) {
	url, out, stop := startDaemon(t)

	resp, err := http.Post(url+"/v1/requests", "application/json",
		strings.NewReader(`{"vnf":0,"reliability":0.9,"duration":2,"payment":50}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	var dec struct {
		Admitted bool   `json:"admitted"`
		Reason   string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("request not admitted: %+v", dec)
	}

	hr, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hr.StatusCode)
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	final := out.String()
	if !strings.Contains(final, "served 1 admissions") {
		t.Errorf("shutdown summary missing admission count: %q", final)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, args := range [][]string{
		{"-scheme", "bogus"},
		{"-algorithm", "bogus"},
		{"-algorithm", "raw", "-scheme", "offsite"},
		{"-instance", "/nonexistent/trace.json"},
		{"-chaos", "-chaos-cloudlet-mttr", "0"},
		{"-horizon-mode", "bogus"},
	} {
		if err := run(ctx, args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// A negative pool size used to run the default silently.
	err := run(ctx, []string{"-scheme", "shared", "-pool-size", "-3"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-pool-size") {
		t.Errorf("negative -pool-size: err = %v, want one naming the flag", err)
	}
}

func TestDaemonOffsiteScheme(t *testing.T) {
	url, _, _ := startDaemon(t, "-algorithm", "pd", "-scheme", "offsite")
	resp, err := http.Get(url + "/v1/cloudlets")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cloudlets status = %d", resp.StatusCode)
	}
	var body struct {
		Horizon   int               `json:"horizon"`
		Cloudlets []json.RawMessage `json:"cloudlets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Horizon < 1 || len(body.Cloudlets) == 0 {
		t.Errorf("cloudlets payload = %+v", body)
	}
}

// TestDaemonRollingSmoke starts the daemon in rolling-horizon mode and
// checks the mode is visible end to end: the startup banner, the
// /v1/cloudlets window fields, an admission, and the window gauges on
// /metrics.
func TestDaemonRollingSmoke(t *testing.T) {
	url, out, _ := startDaemon(t, "-horizon-mode", "rolling", "-horizon", "16")
	if !strings.Contains(out.String(), "(rolling)") {
		t.Errorf("banner does not mention rolling mode: %q", out.String())
	}

	resp, err := http.Get(url + "/v1/cloudlets")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Horizon     int    `json:"horizon"`
		HorizonMode string `json:"horizon_mode"`
		WindowBase  int    `json:"window_base"`
		WindowSize  int    `json:"window_size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if body.HorizonMode != "rolling" || body.WindowBase != 1 || body.WindowSize != 16 || body.Horizon != 16 {
		t.Fatalf("cloudlets window fields = %+v, want rolling base 1 size 16", body)
	}

	req := strings.NewReader(`{"vnf": 0, "reliability": 0.9, "duration": 4, "payment": 50}`)
	resp, err = http.Post(url+"/v1/requests", "application/json", req)
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Admitted bool `json:"admitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !dec.Admitted {
		t.Fatal("rolling daemon rejected a trivially satisfiable request")
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for _, want := range []string{"revnfd_window_base 1", "revnfd_window_size 16"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDaemonTraceSmoke starts the daemon with tracing and pprof enabled,
// admits one request, and walks the new observability surface end to end:
// the decision trace endpoint, the error envelope for an untraced ID, the
// trace counters and λ gauges on /metrics, and the pprof index.
func TestDaemonTraceSmoke(t *testing.T) {
	url, _, _ := startDaemon(t, "-trace", "64", "-trace-sample", "1", "-pprof")

	resp, err := http.Post(url+"/v1/requests", "application/json",
		strings.NewReader(`{"vnf":0,"reliability":0.9,"duration":2,"payment":50}`))
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		ID       int  `json:"id"`
		Admitted bool `json:"admitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !dec.Admitted {
		t.Fatalf("request not admitted: %+v", dec)
	}

	tr, err := http.Get(fmt.Sprintf("%s/v1/decisions/%d/trace", url, dec.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Body.Close() }()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", tr.StatusCode)
	}
	var dt struct {
		Request  int    `json:"request"`
		Admitted bool   `json:"admitted"`
		Outcome  string `json:"outcome"`
		Attempts []struct {
			BestCloudlet int     `json:"best_cloudlet"`
			BestCost     float64 `json:"best_cost"`
			Payment      float64 `json:"payment"`
			Admit        bool    `json:"admit"`
		} `json:"attempts"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&dt); err != nil {
		t.Fatal(err)
	}
	if dt.Request != dec.ID || !dt.Admitted || dt.Outcome != "admitted" {
		t.Errorf("trace = %+v, want admitted outcome", dt)
	}
	if len(dt.Attempts) == 0 || !dt.Attempts[0].Admit ||
		dt.Attempts[0].BestCloudlet < 0 || dt.Attempts[0].Payment <= dt.Attempts[0].BestCost {
		t.Errorf("trace attempts = %+v, want a winning payment test", dt.Attempts)
	}

	// Untraced ID: the structured error envelope.
	er, err := http.Get(url + "/v1/decisions/424242/trace")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Code   int    `json:"code"`
		Reason string `json:"reason"`
		Detail string `json:"detail"`
	}
	if err := json.NewDecoder(er.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	_ = er.Body.Close()
	if er.StatusCode != http.StatusNotFound || env.Code != 404 || env.Reason != "not-found" || env.Detail == "" {
		t.Errorf("envelope = %d %+v, want 404/not-found with detail", er.StatusCode, env)
	}

	mr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := &bytes.Buffer{}
	_, _ = mb.ReadFrom(mr.Body)
	_ = mr.Body.Close()
	for _, want := range []string{
		"revnfd_trace_recorded_total",
		"revnfd_trace_store_capacity 64",
		`revnfd_dual_price{cloudlet="0",window="current"}`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	pr, err := http.Get(url + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_ = pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d, want 200", pr.StatusCode)
	}
}

// TestDaemonChaosSmoke starts the daemon with the failure runtime enabled,
// admits one request, and checks the per-placement health surface plus the
// chaos metric families appear.
func TestDaemonChaosSmoke(t *testing.T) {
	url, _, _ := startDaemon(t, "-chaos", "-chaos-seed", "42")

	resp, err := http.Post(url+"/v1/requests", "application/json",
		strings.NewReader(`{"vnf":0,"reliability":0.9,"duration":3,"payment":50}`))
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		ID       int  `json:"id"`
		Admitted bool `json:"admitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !dec.Admitted {
		t.Fatalf("request not admitted: %+v", dec)
	}

	hr, err := http.Get(fmt.Sprintf("%s/v1/placements/%d/health", url, dec.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hr.Body.Close() }()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d, want 200", hr.StatusCode)
	}
	var health struct {
		ID          int     `json:"id"`
		State       string  `json:"state"`
		Required    float64 `json:"required"`
		Provisioned float64 `json:"provisioned"`
		SLOMet      bool    `json:"slo_met"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.ID != dec.ID || health.State != "active" || health.Required != 0.9 {
		t.Errorf("health = %+v, want active placement requiring 0.9", health)
	}
	if health.Provisioned < health.Required {
		t.Errorf("provisioned %v below requirement %v", health.Provisioned, health.Required)
	}
	if !health.SLOMet {
		t.Errorf("fresh placement reports SLO missed: %+v", health)
	}

	mr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := &bytes.Buffer{}
	_, _ = mb.ReadFrom(mr.Body)
	_ = mr.Body.Close()
	for _, want := range []string{
		"revnfd_chaos_slots_total",
		"revnfd_repairs_total",
		`revnfd_estimated_reliability{cloudlet="0"}`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDaemonHealthWithoutChaos keeps the health endpoint an explicit 404
// when the failure runtime is disabled, steering operators to -chaos.
func TestDaemonHealthWithoutChaos(t *testing.T) {
	url, _, _ := startDaemon(t)
	hr, err := http.Get(url + "/v1/placements/1/health")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Detail string `json:"detail"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	_ = hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound || !strings.Contains(env.Detail, "-chaos") {
		t.Errorf("health without chaos = %d %+v, want 404 pointing at -chaos", hr.StatusCode, env)
	}
}

// TestDaemonPprofOffByDefault keeps the profiling surface opt-in.
func TestDaemonPprofOffByDefault(t *testing.T) {
	url, _, _ := startDaemon(t)
	pr, err := http.Get(url + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_ = pr.Body.Close()
	if pr.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
}
