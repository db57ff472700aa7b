package serve

import (
	"context"
	"math/rand"
	"testing"

	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/onsite"
	"revnf/internal/shared"
	"revnf/internal/workload"
)

// BenchmarkEngineChurn is one slot of the benchmark's steady workloads
// through the engine without a wire: a SubmitBatch of the slot's 8 requests,
// then the Tick that expires what ended and advances the rolling 64-slot
// window. It times the ledger bookings, the placement book and the expiry
// ring together, which BenchmarkDecideChurn (no engine) and benchmark/ (over
// loopback) cannot isolate. The network and the request pool are drawn as
// benchmark/ draws them; /shared is frame-shared-churn's regime (durations
// 1–3), /onsite frame-onsite-steady's (1–10). An op is a slot of 8 requests.
func BenchmarkEngineChurn(b *testing.B) {
	const window, perSlot = 64, 8
	for _, bc := range []struct {
		name   string
		maxDur int
		sched  func(*core.Network) (core.Scheduler, error)
	}{
		{"shared", 3, func(n *core.Network) (core.Scheduler, error) { return shared.NewScheduler(n, window) }},
		{"onsite", 10, func(n *core.Network) (core.Scheduler, error) {
			return onsite.NewScheduler(n, window, onsite.WithCapacityEnforcement())
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			setup := experiments.DefaultSetup()
			setup.Horizon = window
			inst, err := setup.Instance(1, setup.H, setup.K, 1)
			if err != nil {
				b.Fatal(err)
			}
			pool, err := workload.GenerateTrace(workload.TraceConfig{
				Requests: 1 << 12, Horizon: window, MinDuration: 1, MaxDuration: bc.maxDur,
				MinRequirement: setup.ReqMin, MaxRequirement: setup.ReqMax,
				MaxPaymentRate: setup.PRMax, H: setup.H,
			}, inst.Network.Catalog, rand.New(rand.NewSource(2)))
			if err != nil {
				b.Fatal(err)
			}
			sched, err := bc.sched(inst.Network)
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(Config{Network: inst.Network, Scheduler: sched, Horizon: window, Rolling: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { shutdownEngine(b, e) })
			ctx := context.Background()
			reqs, out := make([]AdmissionRequest, perSlot), make([]AdmissionResult, perSlot)
			sent, admitted := 0, 0
			slot := func() {
				for k := range reqs {
					r := pool[sent%len(pool)]
					sent++
					reqs[k] = AdmissionRequest{VNF: r.VNF, Reliability: r.Reliability, Duration: r.Duration, Payment: r.Payment}
				}
				if err := e.SubmitBatch(ctx, reqs, out); err != nil {
					b.Fatal(err)
				}
				for _, res := range out {
					if res.Admitted {
						admitted++
					}
				}
				e.Tick()
			}
			for i := 0; i < 2*window; i++ {
				slot()
			}
			sent, admitted = 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot()
			}
			b.ReportMetric(float64(admitted)/float64(sent), "admitted/req")
		})
	}
}
