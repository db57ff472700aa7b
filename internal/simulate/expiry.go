package simulate

import (
	"fmt"

	"revnf/internal/core"
)

// RequestFor resolves a placement's request in the trace, checking the ID
// is known. It is the shared lookup used by the failure injector and the
// timeline simulator.
func RequestFor(trace []core.Request, p core.Placement) (core.Request, error) {
	if p.Request < 0 || p.Request >= len(trace) {
		return core.Request{}, fmt.Errorf("%w: placement for unknown request %d", ErrBadInstance, p.Request)
	}
	return trace[p.Request], nil
}
