// Command benchmark is the repository's steady-state benchmark of the
// revnfd admission path: serve.Engine + serve.StreamServer assembled as
// cmd/revnfd assembles them, driven over loopback TCP with a slot clock
// the benchmark ticks itself. README.md in this directory describes the
// workloads, the metrics and how they were calibrated.
//
//	go run -C benchmark . -seed 1                 # every workload, traced pass and parity smoke
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//	go run -C benchmark . compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// outDir receives the results file and the trace files; it is relative to
// the benchmark's own directory, which `go run -C benchmark` makes the
// working directory.
const outDir = "out"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run one workload and print its metrics as one JSON object (default: run all and write the results file)")
	seed := flag.Int64("seed", 1, "request-pool seed")
	seconds := flag.Float64("seconds", refSeconds, "measured seconds per workload on the seed commit; scales every frozen count")
	traceOn := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(outDir, "results.json"), "results file of a run over all workloads; an existing file gains one more run")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *workload != "" {
		err = runOne(*workload, *seed, *seconds, *traceOn == 1)
	} else {
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one JSON object on the last
// line of standard output. A run that is not correct still prints its
// object (correct: false) and then exits non-zero.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	sp := findSpec(name)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	share := 1.0
	if traced {
		share = tracedScale
	}
	res, err := runWorkload(sp, seed, seconds, share, traced)
	if err != nil {
		return err
	}
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	for _, c := range res.Checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// run is one pass over all workloads; a results file holds one or more.
type run struct {
	Stamp runStamp `json:"stamp"`
	// Claim is the end-to-end gain this run is offered as evidence for;
	// the change that defines the benchmark makes none.
	Claim     *string   `json:"claim"`
	Workloads []*result `json:"workloads"`
}

type resultsFile struct {
	Runs []run `json:"runs"`
}

// runAll runs every workload with its traced pass, then the parity smoke
// against the real daemon, prints every metric by name and appends the run
// to the results file.
func runAll(seed int64, seconds float64, out string) error {
	rn := run{Stamp: newStamp(seed, seconds)}
	failed := 0
	for i := range specs {
		res, err := runWorkload(&specs[i], seed, seconds, 1, true)
		if err != nil {
			return fmt.Errorf("%s: %w", specs[i].Name, err)
		}
		rn.Workloads = append(rn.Workloads, res)
		printResult(res)
		failed += res.Failed
	}
	if err := paritySmoke(seed); err != nil {
		fmt.Println("parity smoke: FAILED:", err)
		failed++
	} else {
		fmt.Printf("parity smoke: ok (%d decisions bit-identical to cmd/revnfd)\n", parityRequests)
	}
	var file resultsFile
	if old, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(old, &file); err != nil {
			return fmt.Errorf("%s holds no results: %w", out, err)
		}
	}
	file.Runs = append(file.Runs, rn)
	if err := writeJSON(out, file); err != nil {
		return err
	}
	fmt.Printf("results: %s (%d runs)\n", out, len(file.Runs))
	if failed > 0 {
		return fmt.Errorf("%d failures", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printResult(res *result) {
	fmt.Printf("%s: admit ratio %.4f, valid %v, correct %v (%d of %d failed)\n",
		res.Workload, res.AdmitRatio, res.Valid, res.Correct, res.Failed, res.Attempted)
	for _, c := range res.Checks {
		fmt.Println("  check failed:", c)
	}
	for _, name := range []string{"fill", "closed", "open", "rtt1", "traced"} {
		if t, ok := res.Phases[name]; ok {
			fmt.Printf("  phase %-7s attempted %d succeeded %d failed %d\n", name, t.Attempted, t.Succeeded, t.Failed)
		}
	}
	for _, set := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-34s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
}
