package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a fixed-size log-linear histogram of nanosecond durations: 32
// linear sub-buckets per power of two (≤ 3.1 % relative width, and
// quantile interpolates inside a bucket), covering 1 ns to ~17 s in 960
// counters. Latencies never live in arrays, so the generator's memory does
// not grow with the run and mem_mb measures the program, not the harness.
// observe is atomic, so the connections' readers share one histogram.
type hist struct {
	counts [histBuckets]atomic.Uint32
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxExp  = 34
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // ≥ histSubBits
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(ns>>(exp-histSubBits)) - histSub
	return (exp-histSubBits+1)*histSub + sub
}

// histBounds returns the [lo, hi) nanosecond range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := i/histSub + histSubBits - 1
	sub := i % histSub
	width := float64(uint64(1) << (exp - histSubBits))
	lo = float64(uint64(1)<<exp) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) observe(ns int64) { h.counts[histIndex(ns)].Add(1) }

// add adds o's observations to h's.
func (h *hist) add(o *hist) {
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
}

// total is the number of observations.
func (h *hist) total() uint64 {
	var n uint64
	for i := range h.counts {
		n += uint64(h.counts[i].Load())
	}
	return n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the rank, so the result is continuous
// rather than snapped to a bucket edge. It returns 0 for an empty
// histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen float64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quantileOf returns the q-quantile of xs by nearest rank, the smallest for
// q = 0 (0 for none); xs is reordered.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[int(q*float64(len(xs)-1)+0.5)]
}
