package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestWriteProm(t *testing.T) {
	fams := []PromMetric{
		Counter("revnfd_admissions_total", "Requests admitted.", 42),
		Gauge("revnfd_queue_depth", "Jobs queued.", 3),
		Counter("revnfd_rejections_total", "Requests rejected.", 7,
			LabelPair{"reason", "declined"}),
	}
	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP revnfd_admissions_total Requests admitted.\n",
		"# TYPE revnfd_admissions_total counter\n",
		"revnfd_admissions_total 42\n",
		"# TYPE revnfd_queue_depth gauge\n",
		"revnfd_queue_depth 3\n",
		`revnfd_rejections_total{reason="declined"} 7` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromEscaping(t *testing.T) {
	fams := []PromMetric{
		Counter("m_total", "line1\nline2 back\\slash", 1,
			LabelPair{"path", `a"b\c` + "\nd"}),
	}
	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP m_total line1\nline2 back\\slash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `m_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestWritePromRejectsMalformed(t *testing.T) {
	var sb strings.Builder
	if err := WriteProm(&sb, []PromMetric{{Name: "", Type: "counter"}}); !errors.Is(err, ErrBadMetric) {
		t.Errorf("empty name: err = %v", err)
	}
	if err := WriteProm(&sb, []PromMetric{{Name: "x", Type: "summary"}}); !errors.Is(err, ErrBadMetric) {
		t.Errorf("bad type: err = %v", err)
	}
}

func TestHistogramObserveAndMetric(t *testing.T) {
	h, err := NewHistogram(0.001, 0.01, 0.1)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, v := range []float64{0.0005, 0.002, 0.02, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.0725) > 1e-9 {
		t.Errorf("Sum = %v, want 5.0725", h.Sum())
	}
	var sb strings.Builder
	if err := WriteProm(&sb, []PromMetric{h.Metric("lat_seconds", "Latency.")}); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.001"} 1`,
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 5.0725`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	h, err := NewHistogram(1, 2)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	h.Observe(1) // exactly on a bound: le="1" must include it
	var sb strings.Builder
	if err := WriteProm(&sb, []PromMetric{h.Metric("m", "m")}); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if !strings.Contains(sb.String(), `m_bucket{le="1"} 1`) {
		t.Errorf("bound not inclusive:\n%s", sb.String())
	}
}

func TestHistogramClone(t *testing.T) {
	h, err := NewHistogram(1, 2)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	h.Observe(1.5)
	c := h.Clone()
	h.Observe(0.5)
	if c.Count() != 1 || h.Count() != 2 {
		t.Errorf("clone not independent: clone %d, orig %d", c.Count(), h.Count())
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	cases := [][]float64{
		{},
		{1, 1},
		{2, 1},
		{math.Inf(1)},
		{math.NaN()},
	}
	for _, bounds := range cases {
		if _, err := NewHistogram(bounds...); !errors.Is(err, ErrBadHistogram) {
			t.Errorf("NewHistogram(%v): err = %v, want ErrBadHistogram", bounds, err)
		}
	}
}

func TestExponentialBounds(t *testing.T) {
	got := ExponentialBounds(1, 10, 3)
	want := []float64{1, 10, 100}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bound[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
