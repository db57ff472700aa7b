package revnf_test

import (
	"testing"

	"revnf"
	"revnf/internal/core"
	"revnf/internal/simulate"
	"revnf/internal/trace"
)

// TestGoldenDecisionTraces drives both primal-dual schedulers over the
// golden instance (500 requests, DefaultInstanceConfig, seed 42) with a
// full-capture trace store and pins the observability layer to the same
// regime as TestGoldenTraces:
//
//   - tracing must not perturb decisions (admitted counts stay golden);
//   - every request gets exactly one traced Propose attempt whose verdict
//     matches the simulation decision, and every rejection carries a
//     non-empty reason code;
//   - the traced dual-price quantities reproduce the admission test
//     exactly: recomputing the on-site payment test
//     (BestCloudlet ≥ 0 && pay − BestCost > 0) and the off-site weight
//     test (MeetsRequirement(TotalWeight, NeedWeight)) from the trace alone
//     yields the recorded verdict for all 500 requests;
//   - the reason-code distribution and a sample of argmin cloudlets are
//     pinned, so a change in tie-breaking or pricing shows up even if the
//     aggregate counts happen to survive.
func TestGoldenDecisionTraces(t *testing.T) {
	inst, err := revnf.NewInstance(revnf.DefaultInstanceConfig(500), 42)
	if err != nil {
		t.Fatal(err)
	}

	type argminPin struct {
		id    int
		admit bool
		best  int
	}
	cases := []struct {
		name     string
		scheme   revnf.Scheme
		admitted int
		reasons  map[trace.Reason]int
		argmins  []argminPin
	}{
		{
			name:     "pd-onsite",
			scheme:   revnf.OnSite,
			admitted: 226,
			reasons: map[trace.Reason]int{
				trace.ReasonAdmitted:           226,
				trace.ReasonPricedOut:          248,
				trace.ReasonNoFeasibleCloudlet: 26,
			},
			argmins: []argminPin{
				{0, true, 0}, {1, true, 1}, {2, true, 2}, {50, true, 2},
				{100, false, 2}, {150, false, 0}, {200, true, 4},
				{250, false, 6}, {300, false, 6}, {350, false, 7},
				{400, true, 2}, {450, false, 6}, {499, false, 5},
			},
		},
		{
			name:     "pd-offsite",
			scheme:   revnf.OffSite,
			admitted: 244,
			reasons: map[trace.Reason]int{
				trace.ReasonAdmitted:           244,
				trace.ReasonPricedOut:          144,
				trace.ReasonNoFeasibleCloudlet: 88,
				trace.ReasonInsufficientWeight: 24,
			},
			argmins: []argminPin{
				{0, true, 0}, {1, true, 1}, {2, true, 2}, {50, true, 3},
				{100, false, -1}, {150, false, -1}, {200, true, 4},
				{250, false, -1}, {300, true, 3}, {350, false, -1},
				{400, true, 7}, {450, false, -1}, {499, true, 3},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := revnf.NewTraceStore(len(inst.Trace))
			sched, err := revnf.NewScheduler(inst.Network, tc.scheme,
				revnf.WithHorizon(inst.Horizon), revnf.WithRecorder(store))
			if err != nil {
				t.Fatal(err)
			}
			res, err := simulate.Run(inst, sched)
			if err != nil {
				t.Fatal(err)
			}
			if res.Admitted != tc.admitted {
				t.Fatalf("tracing perturbed decisions: admitted %d, golden %d",
					res.Admitted, tc.admitted)
			}
			if store.Len() != len(inst.Trace) {
				t.Fatalf("store holds %d traces, want %d", store.Len(), len(inst.Trace))
			}

			reasons := make(map[trace.Reason]int)
			for id := range inst.Trace {
				dt, ok := store.Get(id)
				if !ok {
					t.Fatalf("request %d: no trace recorded", id)
				}
				if len(dt.Attempts) != 1 {
					t.Fatalf("request %d: %d attempts, want 1 (serial batch)", id, len(dt.Attempts))
				}
				a := dt.Attempts[0]
				decided := res.Decisions[id].Admitted
				if a.Admit != decided {
					t.Fatalf("request %d: trace verdict %v, simulation decided %v", id, a.Admit, decided)
				}
				reason := dt.FinalReason()
				reasons[reason]++
				if decided {
					if reason != trace.ReasonAdmitted {
						t.Fatalf("request %d admitted but FinalReason %q", id, reason)
					}
					if len(dt.Assignments) == 0 {
						t.Fatalf("request %d admitted with no traced assignments", id)
					}
				} else if reason == "" {
					t.Fatalf("request %d rejected with empty reason code", id)
				}

				// The trace must carry enough to replay the admission test.
				var replayed bool
				switch tc.scheme {
				case revnf.OnSite:
					replayed = a.BestCloudlet >= 0 && a.Payment-a.BestCost > 0
				case revnf.OffSite:
					replayed = core.MeetsRequirement(a.TotalWeight, a.NeedWeight)
				}
				if replayed != a.Admit {
					t.Fatalf("request %d: replaying the admission test from the trace gives %v, recorded verdict %v (best=%d cost=%v pay=%v need=%v total=%v)",
						id, replayed, a.Admit, a.BestCloudlet, a.BestCost, a.Payment, a.NeedWeight, a.TotalWeight)
				}
				if a.Admit {
					var chosen int
					for _, c := range a.Candidates {
						if c.Chosen {
							chosen++
						}
					}
					if chosen == 0 {
						t.Fatalf("request %d admitted but no candidate marked chosen", id)
					}
				}
			}

			if len(reasons) != len(tc.reasons) {
				t.Fatalf("reason distribution %v, golden %v", reasons, tc.reasons)
			}
			for r, n := range tc.reasons {
				if reasons[r] != n {
					t.Errorf("reason %q: %d requests, golden %d", r, reasons[r], n)
				}
			}
			for _, pin := range tc.argmins {
				dt, _ := store.Get(pin.id)
				a := dt.Attempts[0]
				if a.Admit != pin.admit || a.BestCloudlet != pin.best {
					t.Errorf("request %d: (admit, argmin) = (%v, %d), golden (%v, %d)",
						pin.id, a.Admit, a.BestCloudlet, pin.admit, pin.best)
				}
			}
		})
	}
}
