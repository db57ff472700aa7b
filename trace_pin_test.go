package revnf_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"revnf"
	"revnf/internal/simulate"
	"revnf/internal/trace"
)

// flatView reports every cloudlet's full capacity on every slot, past the
// horizon too: the view the past-horizon proposals below read.
type flatView struct{ n *revnf.Network }

func (v flatView) Capacity(j int) int             { return v.n.Cloudlets[j].Capacity }
func (v flatView) Residual(j, _ int) int          { return v.Capacity(j) }
func (v flatView) ResidualWindow(j, _, _ int) int { return v.Capacity(j) }

// TestDecisionTracePin pins the recorded decision traces of every
// algorithm × scheme revnf.NewScheduler accepts. Each configuration runs
// over seeded instances of two sizes with a full-capture trace store, then
// proposes three requests whose windows end past the horizon (the
// primal-dual schedulers' horizon rejection). Per configuration it pins
// the SHA-256 of every decision's JSON, in request order, and the count of
// each final reason code, so a change in how an attempt becomes a recorded
// decision — its reason, its best cost, its chosen marks — names the
// configuration and, through the counts, often the reason.
func TestDecisionTracePin(t *testing.T) {
	cases := []struct {
		name    string
		scheme  revnf.Scheme
		alg     revnf.Algorithm
		sha     string
		reasons map[trace.Reason]int
	}{
		{"pd-onsite", revnf.OnSite, revnf.PrimalDual, "57dddc806eaa62981e9954202426c45326c9824eddcc2f2ec31ab08373602633",
			map[trace.Reason]int{trace.ReasonAdmitted: 927, trace.ReasonPricedOut: 536, trace.ReasonNoFeasibleCloudlet: 37, trace.ReasonHorizon: 18}},
		{"raw-onsite", revnf.OnSite, revnf.RawPrimalDual, "f3dc4bfbca8b9331174a64a9febd9ca7447a894873cabf856147724104ffa2b1",
			map[trace.Reason]int{trace.ReasonAdmitted: 910, trace.ReasonPricedOut: 590, trace.ReasonHorizon: 18}},
		{"pd-offsite", revnf.OffSite, revnf.PrimalDual, "91ea61989ff4234d6f723660e12290761db422e400dc53978c48ae444f586361",
			map[trace.Reason]int{trace.ReasonAdmitted: 988, trace.ReasonPricedOut: 242, trace.ReasonNoFeasibleCloudlet: 234, trace.ReasonInsufficientWeight: 36, trace.ReasonHorizon: 18}},
		{"pd-shared", revnf.Shared, revnf.PrimalDual, "016af868eba8dbe2a340621515fe46a2ae29c21cff1d66c16aa1093554312ecf",
			map[trace.Reason]int{trace.ReasonAdmitted: 865, trace.ReasonPricedOut: 429, trace.ReasonNoFeasibleCloudlet: 206, trace.ReasonHorizon: 18}},
		{"greedy-onsite", revnf.OnSite, revnf.Greedy, "f391ad9d0beb58fe3ad30d98f188455c1d38817feafef0b05190b9d675af61f1",
			map[trace.Reason]int{trace.ReasonAdmitted: 1192, trace.ReasonNoFeasibleCloudlet: 326}},
		{"greedy-offsite", revnf.OffSite, revnf.Greedy, "54fa05dabd15f4c40a33c1ce70f9a53f30e87165f7e81477c00c802022a6b9a7",
			map[trace.Reason]int{trace.ReasonAdmitted: 1188, trace.ReasonNoFeasibleCloudlet: 287, trace.ReasonInsufficientWeight: 43}},
		{"firstfit-onsite", revnf.OnSite, revnf.FirstFit, "ce17714d17ad7d8f40559d10d16d8ae15c6b54d6e55f7cb6846d2f1a36c78b7e",
			map[trace.Reason]int{trace.ReasonAdmitted: 1194, trace.ReasonNoFeasibleCloudlet: 324}},
		{"random-onsite", revnf.OnSite, revnf.Random, "d3b3249d041e572c428bec12c124195aadf329bdda1d2f7b8d602fcf08d20824",
			map[trace.Reason]int{trace.ReasonAdmitted: 1193, trace.ReasonNoFeasibleCloudlet: 325}},
	}
	const pastHorizon = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			reasons := make(map[trace.Reason]int)
			for _, size := range []int{100, 400} {
				for seed := int64(1); seed <= 3; seed++ {
					inst, err := revnf.NewInstance(revnf.DefaultInstanceConfig(size), seed)
					if err != nil {
						t.Fatal(err)
					}
					store := revnf.NewTraceStore(size + pastHorizon)
					sched, err := revnf.NewScheduler(inst.Network, tc.scheme,
						revnf.WithAlgorithm(tc.alg), revnf.WithHorizon(inst.Horizon),
						revnf.WithRecorder(store), revnf.WithRNG(rand.New(rand.NewSource(seed))))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := simulate.Run(inst, sched); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < pastHorizon; k++ {
						req := revnf.Request{ID: size + k, VNF: k % len(inst.Network.Catalog),
							Reliability: 0.9, Arrival: inst.Horizon - 1 + k, Duration: 3, Payment: 50}
						sched.Propose(req, flatView{inst.Network})
					}
					for id := 0; id < size+pastHorizon; id++ {
						dt, ok := store.Get(id)
						if !ok {
							t.Fatalf("size %d seed %d: request %d has no trace", size, seed, id)
						}
						b, err := json.Marshal(dt)
						if err != nil {
							t.Fatalf("size %d seed %d: request %d: %v", size, seed, id, err)
						}
						h.Write(append(b, '\n'))
						reasons[dt.FinalReason()]++
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
				t.Errorf("decision JSON SHA-256 %s, pinned %s", got, tc.sha)
			}
			for r, n := range reasons {
				if tc.reasons[r] != n {
					t.Errorf("reason %q: %d decisions, pinned %d", r, n, tc.reasons[r])
				}
			}
			for r, n := range tc.reasons {
				if _, ok := reasons[r]; !ok {
					t.Errorf("reason %q: 0 decisions, pinned %d", r, n)
				}
			}
		})
	}
}
