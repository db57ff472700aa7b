package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at a thousandth of its length, traced pass
// included, and holds what it emits against BENCHMARK.json. The traced
// phase's own checks (decorated engine decides like the undecorated one,
// self times reconcile, nothing negative) fail the run like any other.
func TestSmoke(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(specs))
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i := range specs {
		sp := &specs[i]
		if c.Workloads[i].Name != sp.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, c.Workloads[i].Name, sp.Name)
		}
		res, err := runWorkload(sp, 1, refSeconds/1000.0, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d failed: %v", sp.Name, res.Failed, res.Attempted, res.Checks)
		}
		if got, want := keys(res.EndToEnd), names(c.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json has %v", sp.Name, got, want)
		}
		if got, want := keys(res.PerLayer), names(c.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json has %v", sp.Name, got, want)
		}
		for _, name := range append(keys(res.EndToEnd), append(keys(res.PerLayer), sp.Name)...) {
			if !wellFormed.MatchString(name) {
				t.Errorf("%s: name %q is not made of letters, digits, '_', '.' and '-'", sp.Name, name)
			}
		}

		b, err := os.ReadFile(filepath.Join(outDir, "trace-"+sp.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatal(err)
		}
		for pass, aggs := range tf.Passes {
			for name, a := range aggs {
				if a.Self < 0 || a.Self > a.Total {
					t.Errorf("%s: pass %s span %s has self %d of total %d", sp.Name, pass, name, a.Self, a.Total)
				}
			}
		}
		for pass, spans := range tf.Spans {
			if len(spans) == 0 {
				t.Errorf("%s: pass %s kept no spans", sp.Name, pass)
			}
			request := map[int64]int64{}
			for _, s := range spans {
				request[s.ID] = s.Request
			}
			for _, s := range spans {
				if s.End < s.Start {
					t.Errorf("%s: span %d ends before it starts", sp.Name, s.ID)
				}
				if s.Parent == 0 {
					continue
				}
				if r, ok := request[s.Parent]; !ok || r != s.Request {
					t.Errorf("%s: pass %s span %d (%s) has parent %d outside its request", sp.Name, pass, s.ID, s.Name, s.Parent)
				}
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is what the driver computes spread with.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %v, %v; Python gives 1.25, 5.75", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestHistQuantile checks the histogram against exact quantiles of a
// uniform ramp: within its bucket width of 1/32.
func TestHistQuantile(t *testing.T) {
	var h hist
	for ns := int64(1); ns <= 100000; ns++ {
		h.observe(ns)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*(1-1.0/32) || got > want*(1+1.0/32) {
			t.Errorf("quantile(%v) = %v, want %v within 1/32", q, got, want)
		}
	}
}
