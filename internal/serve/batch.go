package serve

import (
	"context"
	"errors"
	"fmt"
)

// SubmitBatch decides len(reqs) admission requests in submission order,
// writing decision i into out[i]. It is the streaming ingest path's
// entry point: one call passes the gate Submit passes once for the whole
// batch, decides under one worker token, and allocates IDs in batch
// order, so a single connection's request stream produces the same
// decisions the same requests would produce submitted one at a time
// through Submit. The batch counts as len(reqs) against the waiting bound,
// so streaming and HTTP submitters share one backpressure budget.
//
// Backpressure differs from Submit by design: a full engine rejects each
// request individually with ReasonQueueFull in its AdmissionResult
// (ID 0, no error), so a streaming connection keeps its request/response
// pairing instead of tearing down. ErrClosed is returned once Shutdown
// has begun and ctx.Err() when the caller's context ends; on either
// error the contents of out are unspecified.
func (e *Engine) SubmitBatch(ctx context.Context, reqs []AdmissionRequest, out []AdmissionResult) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("%w: batch out %d != reqs %d", ErrBadConfig, len(out), len(reqs))
	}
	if len(reqs) == 0 {
		return nil
	}
	enqueued := e.now()
	token, err := e.enter(ctx, len(reqs))
	if errors.Is(err, ErrQueueFull) {
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
	// One latency observation per batch (cf. latencySampleRate on Submit):
	// the wait for the token and its hold time over the whole batch, which
	// is what a streamed submitter waits.
	e.observe(token, enqueued)
	return nil
}
