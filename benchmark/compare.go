package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// contract is the part of BENCHMARK.json the benchmark reads back: the
// names it must emit and the bound each end-to-end metric may worsen by.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadContract reads BENCHMARK.json from the repository root, which is the
// parent of the benchmark's directory.
func loadContract() (*contract, error) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the driver measures spread. It needs at least two values; xs is
// reordered.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	m := len(xs)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 for a single run, whose spread is unknown.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// side is one results file, flattened: values[workload][metric] lists the
// metric's value in every run.
type side struct {
	values            map[string]map[string][]float64
	attempted, failed map[string]int
}

func loadSide(path string) (*side, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultsFile
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, rn := range file.Runs {
		for _, w := range rn.Workloads {
			if s.values[w.Workload] == nil {
				s.values[w.Workload] = map[string][]float64{}
			}
			for name, m := range w.EndToEnd {
				s.values[w.Workload][name] = append(s.values[w.Workload][name], m.Value)
			}
			s.attempted[w.Workload] += w.Attempted
			s.failed[w.Workload] += w.Failed
		}
	}
	return s, nil
}

// compareMain applies BENCHMARK.json's bounds to two results files, A the
// parent and B the change, per workload and end-to-end metric. A metric is
// a regression when B's median is worse than A's by more than its bound;
// where either side's spread is wider than the bound the row is unresolved
// instead, unless every run of B reads better than every run of A. It
// returns 1 on a regression or when B failed a larger share of what it
// attempted, 2 when it could not compare.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	c, err := loadContract()
	var a, b *side
	if err == nil {
		a, err = loadSide(args[0])
	}
	if err == nil {
		b, err = loadSide(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	exit := 0
	fmt.Printf("%-24s %-16s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, w := range c.Workloads {
		for _, def := range c.EndToEnd {
			av, bv := a.values[w.Name][def.Name], b.values[w.Name][def.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Printf("%-24s %-16s missing from one side\n", w.Name, def.Name)
				exit = 1
				continue
			}
			sign := 1.0 // worse means larger
			if def.Better == "higher" {
				sign = -1
			}
			am, bm := median(av), median(bv)
			worse := sign * (bm - am) / am
			sp := max(spread(av), spread(bv))
			// median and spread left both slices sorted.
			allBetter := bv[len(bv)-1] < av[0]
			if def.Better == "higher" {
				allBetter = bv[0] > av[len(av)-1]
			}
			verdict := "ok"
			switch {
			case sp > def.Bound && !allBetter:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "REGRESSION"
				exit = 1
			}
			fmt.Printf("%-24s %-16s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, def.Name, am, bm, 100*worse, 100*sp, 100*def.Bound, verdict)
		}
		fa := float64(a.failed[w.Name]) / float64(max(1, a.attempted[w.Name]))
		fb := float64(b.failed[w.Name]) / float64(max(1, b.attempted[w.Name]))
		if fb > fa {
			fmt.Printf("%-24s failed share rose from %.2g to %.2g\n", w.Name, fa, fb)
			exit = 1
		}
	}
	return exit
}
