package metrics

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format (version
// 0.0.4) for the serving layer's /metrics endpoint. It is deliberately
// minimal: plain value types rendered on demand, no registry and no
// background goroutines. Thread safety is the caller's concern — the serve
// engine snapshots its counters under its own lock before rendering.

// Errors returned by the exposition renderer.
var (
	ErrBadMetric    = errors.New("metrics: malformed metric")
	ErrBadHistogram = errors.New("metrics: malformed histogram")
)

// LabelPair is one name="value" label on a sample.
type LabelPair struct {
	Name, Value string
}

// PromSample is one sample line of a metric family. Name may extend the
// family name with a suffix such as _bucket, _sum or _count; when empty the
// family name is used.
type PromSample struct {
	Name   string
	Labels []LabelPair
	Value  float64
}

// PromMetric is one metric family: a # HELP line, a # TYPE line, and its
// samples.
type PromMetric struct {
	// Name is the family name, e.g. "revnfd_admissions_total".
	Name string
	// Help is the one-line description.
	Help string
	// Type is one of "counter", "gauge", "histogram" or "untyped".
	Type string
	// Samples are the value lines, rendered in order.
	Samples []PromSample
}

// Counter builds a single-sample counter family.
func Counter(name, help string, value float64, labels ...LabelPair) PromMetric {
	return PromMetric{Name: name, Help: help, Type: "counter",
		Samples: []PromSample{{Labels: labels, Value: value}}}
}

// Gauge builds a single-sample gauge family.
func Gauge(name, help string, value float64, labels ...LabelPair) PromMetric {
	return PromMetric{Name: name, Help: help, Type: "gauge",
		Samples: []PromSample{{Labels: labels, Value: value}}}
}

// WriteProm renders the families in the Prometheus text exposition format.
func WriteProm(w io.Writer, families []PromMetric) error {
	var sb strings.Builder
	for _, fam := range families {
		if err := fam.validate(); err != nil {
			return err
		}
		sb.WriteString("# HELP ")
		sb.WriteString(fam.Name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(fam.Help))
		sb.WriteByte('\n')
		sb.WriteString("# TYPE ")
		sb.WriteString(fam.Name)
		sb.WriteByte(' ')
		sb.WriteString(fam.Type)
		sb.WriteByte('\n')
		for _, s := range fam.Samples {
			name := s.Name
			if name == "" {
				name = fam.Name
			}
			sb.WriteString(name)
			if len(s.Labels) > 0 {
				sb.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						sb.WriteByte(',')
					}
					sb.WriteString(l.Name)
					sb.WriteString(`="`)
					sb.WriteString(escapeLabel(l.Value))
					sb.WriteByte('"')
				}
				sb.WriteByte('}')
			}
			sb.WriteByte(' ')
			sb.WriteString(formatPromValue(s.Value))
			sb.WriteByte('\n')
		}
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("metrics: write exposition: %w", err)
	}
	return nil
}

func (m PromMetric) validate() error {
	if m.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadMetric)
	}
	switch m.Type {
	case "counter", "gauge", "histogram", "untyped":
	default:
		return fmt.Errorf("%w: %q type %q", ErrBadMetric, m.Name, m.Type)
	}
	return nil
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// Histogram is a fixed-bucket histogram matching the Prometheus data
// model: cumulative bucket counts, a sum and a total count. It is not safe
// for concurrent use; callers guard it with their own lock.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // counts[i] = observations ≤ bounds[i] (non-cumulative per bucket); last entry is the overflow bucket
	sum    float64
	count  uint64
}

// NewHistogram creates a histogram with the given strictly ascending,
// finite bucket upper bounds. At least one bound is required; the +Inf
// overflow bucket is added automatically.
func NewHistogram(bounds ...float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("%w: no buckets", ErrBadHistogram)
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			return nil, fmt.Errorf("%w: bound %v", ErrBadHistogram, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("%w: bounds not ascending at %v", ErrBadHistogram, b)
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}, nil
}

// ExponentialBounds returns n strictly ascending bounds starting at first
// and multiplying by factor, for NewHistogram.
func ExponentialBounds(first, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	b := first
	for i := 0; i < n; i++ {
		out = append(out, b)
		b *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Clone returns an independent copy, letting callers snapshot under a lock
// and render outside it.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), h.bounds...),
		counts: append([]uint64(nil), h.counts...),
		sum:    h.sum,
		count:  h.count,
	}
}

// Merge adds another histogram's observations into h. The two must have
// identical bucket bounds — the shard-merge case this exists for always
// builds its histograms from one bounds spec.
func (h *Histogram) Merge(other *Histogram) error {
	if len(other.bounds) != len(h.bounds) {
		return fmt.Errorf("%w: merging %d buckets into %d", ErrBadHistogram, len(other.bounds), len(h.bounds))
	}
	for i, b := range other.bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("%w: bucket bound mismatch at %d", ErrBadHistogram, i)
		}
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.sum += other.sum
	h.count += other.count
	return nil
}

// Metric renders the histogram as a Prometheus family with cumulative
// _bucket samples, _sum and _count.
func (h *Histogram) Metric(name, help string, labels ...LabelPair) PromMetric {
	fam := PromMetric{Name: name, Help: help, Type: "histogram"}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fam.Samples = append(fam.Samples, PromSample{
			Name:   name + "_bucket",
			Labels: append(append([]LabelPair(nil), labels...), LabelPair{"le", formatPromValue(bound)}),
			Value:  float64(cum),
		})
	}
	fam.Samples = append(fam.Samples,
		PromSample{
			Name:   name + "_bucket",
			Labels: append(append([]LabelPair(nil), labels...), LabelPair{"le", "+Inf"}),
			Value:  float64(h.count),
		},
		PromSample{Name: name + "_sum", Labels: labels, Value: h.sum},
		PromSample{Name: name + "_count", Labels: labels, Value: float64(h.count)},
	)
	return fam
}
