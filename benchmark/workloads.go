package main

import "revnf/internal/core"

// Constants shared by every workload. They mirror what an operator would
// pass to revnfd (-horizon-mode rolling -horizon 64 -queue 4096 -workers 2
// -slot 0); the parity smoke starts the real daemon with exactly these.
const (
	// networkSeed draws the cloudlet fleet. It is part of the benchmark's
	// configuration, not of a run: --seed only draws the request pool, so
	// capacity (and with it the admit ratio) is the same on every seed.
	networkSeed = 1
	poolSize    = 20000
	horizon     = 64
	queueSize   = 4096
	workers     = 2
	// loadConns is the number of load-generator connections (= nproc on
	// the box the workloads were sized on).
	loadConns = 2
	// pipelineDepth is the in-flight window: 128 callers that each wait
	// for a reply, spread over the connections (see phases.go for why not
	// more). The closed loop sends them as chunksInFlight chunks of
	// chunkSize per connection.
	pipelineDepth  = 128
	chunkSize      = 32
	chunksInFlight = pipelineDepth / loadConns / chunkSize
	// refSeconds is the run length every frozen count below is stated at
	// (BENCHMARK.json run_seconds); --seconds scales them linearly.
	refSeconds = 30
	// closedSeconds and openSeconds are how long phases 2 and 3 last on
	// the seed commit at refSeconds; the rest of a run is set-up, the
	// depth-1 ping-pong and the correctness checks.
	closedSeconds = 10
	openSeconds   = 15
	// loadSlices is how many slices phases 2 and 3 are cut into; the slices
	// of the two alternate.
	loadSlices = 5
	// rateRef is the open loop's offered rate in requests per second, on
	// every workload: a quarter to a third of what one CPU serves unbatched
	// on the seed commit. Nearer the knee the one CPU the phase runs on has
	// no room for a collection or a busy host, a backlog forms in most of
	// the phase, and the latency the code itself costs shows too rarely to
	// be read every run.
	rateRef = 20000
	// closedWindows cuts phase 2 into equal sub-windows, of about 3.5 ms
	// on the seed commit; p50Window and p99Window are how many consecutive
	// open-loop requests make one sub-window of lat_p50_us (1.6 ms at
	// rateRef) and of lat_p99_us (which needs ten latencies beyond its
	// p99). The timing metrics are read from the quietest sub-window, so
	// the stretches in which the host takes the processor away spoil
	// windows and not the metric; the shorter the window, the busier a host
	// still leaves one whole.
	closedWindows = 2800
	p50Window     = 32
	p99Window     = 1024
	// rttRequests is the length of the depth-1 ping-pong at refSeconds.
	rttRequests = 20000
	// tracedRequests is the traced pass's length at refSeconds.
	tracedRequests = 200000
	// tracedScale is the share of phases 2 and 3 a --trace 1 run keeps: it
	// needs them only for the counters a loaded server produces.
	tracedScale = 0.25
	// parityRequests is how many pool requests the parity smoke replays
	// against the real daemon.
	parityRequests = 2000
	// setupRepeats is how often set-up runs at refSeconds, half before the
	// load and half after; setup_s is the fastest.
	setupRepeats = 46
)

// spec is one workload. Counts and rates are frozen here (BENCHMARK.json
// has no room for them); README.md records the seed runs they came from,
// and BENCHMARK.json why each workload exists.
type spec struct {
	Name   string
	Proto  string // "frame" or "ndjson"
	Scheme core.Scheme
	// PerSlot is K: exactly K requests ask for each slot, and the clock
	// ticks once they are decided.
	PerSlot        int
	MinDur, MaxDur int
	// AdmitLo and AdmitHi bound the closed-loop admit ratio; outside the
	// band the run fails its correctness gate.
	AdmitLo, AdmitHi float64
	// ClosedPerSec × closedSeconds × seconds/refSeconds requests make the
	// closed-loop phase (≈ the seed's closed-loop throughput, so the phase
	// lasts about closedSeconds there).
	ClosedPerSec int
}

var specs = []spec{
	{
		Name: "frame-onsite-steady", Proto: "frame", Scheme: core.OnSite,
		PerSlot: 8, MinDur: 1, MaxDur: 10, AdmitLo: 0.40, AdmitHi: 0.56,
		ClosedPerSec: 430000,
	},
	{
		Name: "frame-onsite-saturated", Proto: "frame", Scheme: core.OnSite,
		PerSlot: 256, MinDur: 1, MaxDur: 10, AdmitLo: 0, AdmitHi: 0.05,
		ClosedPerSec: 900000,
	},
	{
		Name: "ndjson-offsite-steady", Proto: "ndjson", Scheme: core.OffSite,
		PerSlot: 8, MinDur: 1, MaxDur: 10, AdmitLo: 0.49, AdmitHi: 0.65,
		ClosedPerSec: 320000,
	},
	{
		Name: "frame-shared-churn", Proto: "frame", Scheme: core.Shared,
		PerSlot: 8, MinDur: 1, MaxDur: 3, AdmitLo: 0.78, AdmitHi: 0.95,
		ClosedPerSec: 140000,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}
