package serve

import (
	"sync"
	"sync/atomic"

	"revnf/internal/metrics"
)

// ingestStats tracks the ingest layer per protocol: request counters for
// the HTTP JSON endpoint and both streaming protocols, stream connection
// and terminal-error counters, and the distribution of SubmitBatch batch
// sizes (the knob the adaptive batcher turns under load). All counters
// are lock-free atomics; only the batch-size histogram takes a mutex,
// once per batch.
type ingestStats struct {
	jsonReqs   atomic.Uint64
	ndjsonReqs atomic.Uint64
	frameReqs  atomic.Uint64

	ndjsonConns  atomic.Uint64
	frameConns   atomic.Uint64
	streamErrors atomic.Uint64
	streamPanics atomic.Uint64

	batchMu sync.Mutex
	batches *metrics.Histogram // guarded by batchMu
}

func newIngestStats() (*ingestStats, error) {
	// Bounds 1, 2, 4, ..., 512 bracket the batch cap (maxStreamBatch).
	h, err := metrics.NewHistogram(metrics.ExponentialBounds(1, 2, 10)...)
	if err != nil {
		return nil, err
	}
	return &ingestStats{batches: h}, nil
}

func (s *ingestStats) observeBatch(n int) {
	s.batchMu.Lock()
	s.batches.Observe(float64(n))
	s.batchMu.Unlock()
}

// ingestFamilies renders the ingest-layer metric families.
func (e *Engine) ingestFamilies() []metrics.PromMetric {
	st := e.ingest
	reqs := metrics.PromMetric{
		Name: "revnfd_ingest_requests_total",
		Help: "Admission requests decoded, by ingress protocol.",
		Type: "counter",
	}
	for _, p := range []struct {
		proto string
		n     uint64
	}{
		{"json", st.jsonReqs.Load()},
		{"ndjson", st.ndjsonReqs.Load()},
		{"frame", st.frameReqs.Load()},
	} {
		reqs.Samples = append(reqs.Samples, metrics.PromSample{
			Labels: []metrics.LabelPair{{Name: "protocol", Value: p.proto}},
			Value:  float64(p.n),
		})
	}
	conns := metrics.PromMetric{
		Name: "revnfd_stream_connections_total",
		Help: "Streaming connections accepted, by protocol.",
		Type: "counter",
	}
	for _, p := range []struct {
		proto string
		n     uint64
	}{
		{"ndjson", st.ndjsonConns.Load()},
		{"frame", st.frameConns.Load()},
	} {
		conns.Samples = append(conns.Samples, metrics.PromSample{
			Labels: []metrics.LabelPair{{Name: "protocol", Value: p.proto}},
			Value:  float64(p.n),
		})
	}
	st.batchMu.Lock()
	batchHist := st.batches.Clone()
	st.batchMu.Unlock()
	return []metrics.PromMetric{
		reqs,
		conns,
		metrics.Counter("revnfd_stream_errors_total",
			"Streaming connections terminated by a protocol or engine error.",
			float64(st.streamErrors.Load())),
		metrics.Counter("revnfd_stream_panics_total",
			"Streaming connections closed with a 500 because a decision of theirs panicked.",
			float64(st.streamPanics.Load())),
		batchHist.Metric("revnfd_ingest_batch_size",
			"Requests per engine batch on the streaming ingest path."),
	}
}
