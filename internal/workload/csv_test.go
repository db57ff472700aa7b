package workload

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"revnf/internal/core"
)

func TestImportCSV(t *testing.T) {
	input := `arrival,duration,vnf,reliability,payment
3,2,firewall,0.92,10.5
1,4,2,0.9,7
2,1,CACHE,0.95,3.25
`
	catalog := DefaultCatalog()
	trace, err := ImportCSV(strings.NewReader(input), catalog, 10)
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	if len(trace) != 3 {
		t.Fatalf("trace length = %d, want 3", len(trace))
	}
	// Sorted by arrival and renumbered.
	if trace[0].Arrival != 1 || trace[1].Arrival != 2 || trace[2].Arrival != 3 {
		t.Errorf("trace not sorted: %+v", trace)
	}
	for i, r := range trace {
		if r.ID != i {
			t.Errorf("request %d has ID %d", i, r.ID)
		}
	}
	// VNF by index (2 = load-balancer) and by case-insensitive name.
	if catalog[trace[0].VNF].Name != "load-balancer" {
		t.Errorf("index VNF resolved to %q", catalog[trace[0].VNF].Name)
	}
	if catalog[trace[1].VNF].Name != "cache" {
		t.Errorf("name VNF resolved to %q", catalog[trace[1].VNF].Name)
	}
	if trace[2].Payment != 10.5 || trace[2].Reliability != 0.92 {
		t.Errorf("fields lost: %+v", trace[2])
	}
}

func TestImportCSVErrors(t *testing.T) {
	catalog := DefaultCatalog()
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"wrong header", "a,b,c,d,e\n"},
		{"short header", "arrival,duration\n"},
		{"bad arrival", "arrival,duration,vnf,reliability,payment\nx,1,0,0.9,1\n"},
		{"bad duration", "arrival,duration,vnf,reliability,payment\n1,x,0,0.9,1\n"},
		{"unknown vnf name", "arrival,duration,vnf,reliability,payment\n1,1,nope,0.9,1\n"},
		{"vnf index out of range", "arrival,duration,vnf,reliability,payment\n1,1,99,0.9,1\n"},
		{"bad reliability", "arrival,duration,vnf,reliability,payment\n1,1,0,x,1\n"},
		{"bad payment", "arrival,duration,vnf,reliability,payment\n1,1,0,0.9,x\n"},
		{"reliability out of range", "arrival,duration,vnf,reliability,payment\n1,1,0,1.5,1\n"},
		{"window past horizon", "arrival,duration,vnf,reliability,payment\n9,5,0,0.9,1\n"},
		{"ragged row", "arrival,duration,vnf,reliability,payment\n1,1,0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ImportCSV(strings.NewReader(tc.input), catalog, 10); !errors.Is(err, ErrBadCSV) {
				t.Errorf("err = %v, want ErrBadCSV", err)
			}
		})
	}
	if _, err := ImportCSV(strings.NewReader("x"), nil, 10); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty catalog err = %v", err)
	}
}

func TestImportCSVTiesKeepFileOrder(t *testing.T) {
	// Payment k marks the k-th data row; each arrival is on three rows.
	var b strings.Builder
	b.WriteString("arrival,duration,vnf,reliability,payment\n")
	for k := 0; k < 30; k++ {
		fmt.Fprintf(&b, "%d,1,0,0.9,%d\n", 10-k%10, k)
	}
	trace, err := ImportCSV(strings.NewReader(b.String()), DefaultCatalog(), 10)
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	for i := 1; i < len(trace); i++ {
		prev, cur := trace[i-1], trace[i]
		if cur.Arrival < prev.Arrival || (cur.Arrival == prev.Arrival && cur.Payment < prev.Payment) {
			t.Fatalf("requests %d and %d out of order: %+v then %+v", i-1, i, prev, cur)
		}
	}

	// Rows are range-checked after the sort, so an error names the
	// request's position in arrival order, not its line.
	_, err = ImportCSV(strings.NewReader("arrival,duration,vnf,reliability,payment\n2,1,0,0.9,1\n-3,1,0,0.9,1\n"), DefaultCatalog(), 10)
	if !errors.Is(err, ErrBadCSV) || !strings.Contains(err.Error(), "request 0:") {
		t.Errorf("negative arrival err = %v, want ErrBadCSV naming request 0", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	catalog := DefaultCatalog()
	cfg := baseTraceConfig()
	trace, err := GenerateTrace(cfg, catalog, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	var buf bytes.Buffer
	if err := ExportCSV(&buf, catalog, trace); err != nil {
		t.Fatalf("ExportCSV: %v", err)
	}
	got, err := ImportCSV(&buf, catalog, cfg.Horizon)
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	if len(got) != len(trace) {
		t.Fatalf("round trip length %d, want %d", len(got), len(trace))
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Fatalf("request %d differs after round trip:\n%+v\n%+v", i, got[i], trace[i])
		}
	}
}

func TestExportCSVErrors(t *testing.T) {
	catalog := DefaultCatalog()
	badTrace := []core.Request{
		{ID: 0, VNF: 99, Reliability: 0.9, Arrival: 1, Duration: 1, Payment: 1},
	}
	var buf bytes.Buffer
	if err := ExportCSV(&buf, catalog, badTrace); !errors.Is(err, ErrBadCSV) {
		t.Errorf("bad VNF err = %v, want ErrBadCSV", err)
	}
}
