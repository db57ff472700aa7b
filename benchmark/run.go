package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's row in the results file.
type result struct {
	Workload string `json:"workload"`
	// Valid is false when the load generator could not keep its own
	// schedule (median lateness above a tenth of lat_p50_us): the
	// latencies then measure the generator, not the server.
	Valid bool `json:"valid"`
	// Correct is false when any decision failed or any check did.
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	AdmitRatio float64 `json:"admit_ratio"`
	// GenLateP99Us is how late the open loop's generator wrote the request
	// it was latest with one time in a hundred.
	GenLateP99Us float64 `json:"gen_late_p99_us"`
	// LatP99Us is the open loop's tail, the lowest of its sub-windows' p99.
	// It is reported in every row and as a per-layer metric, not bounded as
	// an end-to-end one: README.md says why.
	LatP99Us float64 `json:"lat_p99_us"`
	// Confined is true when the open loop ran with the process restricted
	// to one CPU (see runWorkload); its latencies do not compare with those
	// of a run where that was not possible.
	Confined bool `json:"open_loop_confined"`
	// Phases holds the attempted, succeeded and failed counts per phase.
	Phases map[string]tally `json:"phases"`
	// Samples states how many samples each timing metric rests on.
	Samples  map[string]int    `json:"samples"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Checks   []string          `json:"failed_checks"`
}

// runStamp identifies the machine, toolchain and commit a results file came
// from.
type runStamp struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newStamp(seed int64, seconds float64) runStamp {
	st := runStamp{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: "unknown", Seed: seed, Seconds: seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	if st.Commit == "unknown" {
		// run.sh builds without VCS stamping; outside a git checkout the
		// commit stays unknown.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			st.Commit = strings.TrimSpace(string(out))
		}
	}
	return st
}

// scaled returns count × seconds/refSeconds × share, rounded down to a
// multiple of unit and never below it.
func scaled(count, seconds, share float64, unit int) int {
	n := int(count*seconds/refSeconds*share) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// runWorkload runs one workload end to end: set-up (repeated), the closed
// and the open loop in alternating slices, the correctness checks and more
// set-ups; with traced it also runs the depth-1 ping-pong and the traced
// pass and fills PerLayer. share scales phases 2 and 3 (a --trace 1 run
// keeps a quarter of them).
func runWorkload(sp *spec, seed int64, seconds, share float64, traced bool) (*result, error) {
	// Phase 1, repeated: setup_s is the fastest of all set-ups, half of them
	// run now and half after the load, on either side of any stretch in
	// which the host slows everything down. The last rig of this half is
	// kept. A run over all workloads starts each from a collected heap, as a
	// run of one does.
	runtime.GC()
	var r *rig
	var fill tally
	repeats := scaled(setupRepeats, seconds, 1, 2)
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats/2; i++ {
		if r != nil {
			r.close()
		}
		var err error
		if r, fill, err = setUp(sp, seed); err != nil {
			return nil, err
		}
		setups = append(setups, r.setupS)
	}
	defer r.close()

	res := &result{Workload: sp.Name, Phases: map[string]tally{}, Samples: map[string]int{},
		EndToEnd: map[string]metric{}, Confined: true}
	// Phases 2 and 3 alternate in loadSlices slices each, so that both sample
	// the whole length of the run: the host slows everything down by a third
	// to a half for 5 to 25 seconds at a time, and a phase that such a
	// stretch covers from end to end has no quiet window to read. The open
	// loop and the ping-pong run with the whole process on one CPU, as under
	// `taskset -c 0`. At rate_ref a request finds the server idle, and on two
	// CPUs a hand-over (pacer to server reader to decider to client reader)
	// then wakes a halted virtual CPU: 17 of the 29 µs lat_p50_us was on the
	// machine the workloads were sized on, and the part a busy host
	// stretches by half. On one CPU the hand-overs are context switches and
	// the latency is the program's own path. A traced run also watches the
	// loaded engine and ends with a depth-1 ping-pong.
	confined := func() (release func()) {
		release, err := confine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: open loop not confined to one CPU:", err)
			res.Confined = false
			return func() {}
		}
		return release
	}
	var load loadStats
	var smp *sampler
	if traced {
		smp = startSampler(r)
	}
	closed, open := &phase{}, &phase{}
	closedN := scaled(float64(sp.ClosedPerSec), seconds, closedSeconds*share/loadSlices, loadConns*closedWindows/loadSlices)
	openN := scaled(rateRef, seconds, openSeconds*share/loadSlices, loadConns)
	runtime.GC()
	for i := 0; i < loadSlices; i++ {
		before := r.scrape()
		closed.add(r.closedLoop(closedN, chunkSize, chunksInFlight, closedWindows/loadSlices))
		after := r.scrape()
		load.batchSum += after.batchSum - before.batchSum
		load.batchCount += after.batchCount - before.batchCount
		load.streamErrors = after.streamErrors
		release := confined()
		open.add(r.openLoop(openN, rateRef))
		release()
	}
	if traced {
		release := confined()
		load.rtt = r.closedLoop(scaled(rttRequests, seconds, 1, loadConns), 1, 1, 1)
		release()
		load.queueDepthMax, load.scrapeMs = smp.finish()
	}
	// mem_mb is what the server retains once the load is over: the heap in
	// use right after a collection. (The peak between collections depends
	// on where in the run the last collection fell, a fifth of the value
	// from run to run.)
	runtime.GC()
	heapMB := heapInUseMB()

	// Correctness gate.
	var all tally
	res.Phases["fill"], res.Phases["closed"], res.Phases["open"] = fill, closed.tally, open.tally
	all.add(fill)
	all.add(closed.tally)
	all.add(open.tally)
	if load.rtt != nil {
		res.Phases["rtt1"] = load.rtt.tally
		all.add(load.rtt.tally)
	}
	res.AdmitRatio = closed.admitRatio()
	if res.AdmitRatio < sp.AdmitLo || res.AdmitRatio > sp.AdmitHi {
		res.Checks = append(res.Checks, fmt.Sprintf("admit ratio %.4f outside [%.2f, %.2f]", res.AdmitRatio, sp.AdmitLo, sp.AdmitHi))
	}
	load.stats = r.engine.Stats()
	res.Checks = append(res.Checks, r.checkBooks(all)...)
	res.Checks = append(res.Checks, r.checkDrain()...)

	// The other half of phase 1, on rigs of their own. The loaded engine is
	// let go first, so that these set-ups too start from an empty heap.
	r.close()
	runtime.GC()
	for len(setups) < repeats {
		extra, _, err := setUp(sp, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, extra.setupS)
		extra.close()
	}

	// End-to-end metrics. Each timing is reduced from the quiet end of its
	// repeats or sub-windows: interference from the host only ever adds
	// time, and what is left is what the code itself costs (README.md has
	// the spreads each choice rests on).
	res.EndToEnd["setup_s"] = metric{quantileOf(setups, 0), "s"}
	res.EndToEnd["throughput_rps"] = metric{quantileOf(closed.rates, 0.98), "1/s"}
	res.EndToEnd["lat_p50_us"] = metric{quantileOf(open.p50s, 0), "us"}
	res.EndToEnd["revenue_per_req"] = metric{closed.Revenue / float64(closed.Attempted), "pay"}
	res.EndToEnd["mem_mb"] = metric{heapMB, "MB"}
	res.Samples["setup_s"] = repeats
	res.Samples["throughput_rps"] = closed.Attempted
	res.Samples["throughput_windows"] = len(closed.rates)
	res.Samples["lat_p50_windows"] = len(open.p50s)
	res.Samples["lat_p50_per_window"] = p50Window
	res.Samples["lat_p99_windows"] = len(open.p99s)
	res.Samples["lat_p99_per_window"] = p99Window

	// The generator's own lateness: invalid when the typical request left
	// more than a tenth of lat_p50_us late, for then the latencies measure
	// the generator. The tail (bench.gen_late_p99_us) is reported, not
	// gated: a pacer sharing its CPU with the server waits out a scheduler
	// slice or a collection about once in a hundred sends whatever the
	// code under test does.
	res.GenLateP99Us = open.late.quantile(0.99) / 1e3
	res.LatP99Us = quantileOf(open.p99s, 0)
	res.Samples["gen_late"] = int(open.late.total())
	res.Valid = open.late.quantile(0.50)/1e3 <= 0.1*res.EndToEnd["lat_p50_us"].Value

	if traced {
		// What the set-ups left would otherwise sit in the heap, and its
		// collection in the passes' timings.
		runtime.GC()
		res.PerLayer = map[string]metric{}
		if err := tracedPhase(r, res, seconds, load); err != nil {
			return nil, err
		}
	}
	res.Attempted = all.Attempted
	res.Failed = all.Failed + len(res.Checks)
	res.Correct = res.Failed == 0
	return res, nil
}
