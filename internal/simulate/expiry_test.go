package simulate

import (
	"errors"
	"testing"

	"revnf/internal/core"
)

func TestRequestFor(t *testing.T) {
	trace := []core.Request{{ID: 0, Arrival: 1, Duration: 2}, {ID: 1, Arrival: 3, Duration: 1}}
	req, err := RequestFor(trace, core.Placement{Request: 1})
	if err != nil || req.ID != 1 {
		t.Fatalf("RequestFor = %+v, %v", req, err)
	}
	for _, bad := range []int{-1, 2} {
		if _, err := RequestFor(trace, core.Placement{Request: bad}); !errors.Is(err, ErrBadInstance) {
			t.Errorf("RequestFor(%d): err = %v, want ErrBadInstance", bad, err)
		}
	}
}
