package serve

import (
	"context"
	"errors"
	"fmt"
)

// SubmitBatch decides len(reqs) admission requests in submission order,
// writing decision i into out[i]. It is the engine's one entry point: the
// streaming ingest path passes it a connection's batch, the HTTP handler a
// batch of one. One call passes the backpressure gate once for the whole
// batch, decides under one worker token and allocates IDs in batch order,
// so a request stream produces the same decisions however it is cut into
// batches. The batch counts as len(reqs) against the waiting bound, so
// streaming and HTTP submitters share one backpressure budget.
//
// A full engine rejects each request individually with ReasonQueueFull in
// its AdmissionResult (ID 0, no error), so a streaming connection keeps its
// request/response pairing instead of tearing down. ErrClosed is returned
// once Shutdown has begun and ctx.Err() when the caller's context ends
// before a worker token is acquired or between retry attempts (counted as
// ReasonCanceled); on either error the contents of out are unspecified.
func (e *Engine) SubmitBatch(ctx context.Context, reqs []AdmissionRequest, out []AdmissionResult) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("%w: batch out %d != reqs %d", ErrBadConfig, len(out), len(reqs))
	}
	if len(reqs) == 0 {
		return nil
	}
	enqueued := e.now()
	token, err := e.enter(ctx, len(reqs))
	if errors.Is(err, errQueueFull) {
		slot := int(e.slotNow.Load())
		for i := range out {
			out[i] = AdmissionResult{Reason: ReasonQueueFull, Slot: slot}
		}
		return nil
	}
	if err != nil {
		return err
	}
	defer e.leave(token, len(reqs))
	for i := range reqs {
		if out[i], err = e.decide(ctx, token, reqs[i]); err != nil {
			return err
		}
	}
	// One latency observation per call: the wait for the token and its hold
	// time over the whole batch, which is what the submitter waits.
	e.observe(token, enqueued)
	return nil
}
