package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestDualPriceGaugesMatchLambdaScan holds the revnfd_dual_price family to
// its definition: per cloudlet, λ at the current slot and the maximum of λ
// from the current slot to the end of the live window, as a scan of the
// scheduler's Lambda reads them, in fixed and in rolling mode. The engine
// ticks until its window has advanced, so in rolling mode the maximum is
// taken over a span that wraps the price ring.
func TestDualPriceGaugesMatchLambdaScan(t *testing.T) {
	const horizon = 6
	for _, rolling := range []bool{false, true} {
		t.Run(fmt.Sprintf("rolling=%v", rolling), func(t *testing.T) {
			n := testNetwork()
			sched := newOnsiteScheduler(t, n, horizon)
			e, err := New(Config{Network: n, Scheduler: sched, Horizon: horizon, Rolling: rolling})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { shutdownEngine(t, e) })
			for step := 0; step < 3; step++ {
				for d := 1; d <= 3; d++ {
					submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: d, Payment: 40})
				}
				e.Tick()
			}
			st := e.Stats()
			maxSlot := horizon
			if rolling {
				if st.WindowBase == 1 {
					t.Fatal("the window never advanced: no maximum spans the ring's wrap")
				}
				maxSlot = st.WindowBase + horizon - 1
			}
			// A better-paying booking of the window's last slot, past the
			// ring's wrap in rolling mode, lifts that slot's price alone above
			// the current one's, so a scan that stops short of maxSlot misses it.
			if res := submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Arrival: maxSlot, Duration: 1, Payment: 400}); !res.Admitted {
				t.Fatalf("booking at the far edge: %+v", res)
			}
			var buf bytes.Buffer
			if err := e.WriteMetrics(&buf); err != nil {
				t.Fatal(err)
			}
			var nowPositive, maxAbove bool
			for j := range n.Cloudlets {
				now, max := sched.Lambda(j, st.Slot), 0.0
				for t := st.Slot; t <= maxSlot; t++ {
					if v := sched.Lambda(j, t); v > max {
						max = v
					}
				}
				nowPositive = nowPositive || now > 0
				maxAbove = maxAbove || max > now
				for window, want := range map[string]float64{"current": now, "max": max} {
					line := fmt.Sprintf("revnfd_dual_price{cloudlet=\"%d\",window=%q} %s\n", j, window, strconv.FormatFloat(want, 'g', -1, 64))
					if !strings.Contains(buf.String(), line) {
						t.Errorf("scrape lacks %q", line)
					}
				}
			}
			if !nowPositive || !maxAbove {
				t.Fatalf("slot %d: no cloudlet with λ > 0 now (%v) or a window maximum above it (%v); the scan checks nothing", st.Slot, nowPositive, maxAbove)
			}
		})
	}
}
