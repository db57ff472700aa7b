package simulate

import (
	"errors"
	"testing"

	"revnf/internal/baseline"
	"revnf/internal/core"
	"revnf/internal/onsite"
	"revnf/internal/workload"
)

func testInstance(t *testing.T, requests int) *workload.Instance {
	t.Helper()
	network := &core.Network{
		Catalog: []core.VNF{
			{ID: 0, Name: "fw", Demand: 1, Reliability: 0.95},
			{ID: 1, Name: "ids", Demand: 2, Reliability: 0.9},
		},
		Cloudlets: []core.Cloudlet{
			{ID: 0, Node: 0, Capacity: 10, Reliability: 0.99},
			{ID: 1, Node: 1, Capacity: 8, Reliability: 0.999},
		},
	}
	trace := make([]core.Request, requests)
	for i := range trace {
		trace[i] = core.Request{
			ID:          i,
			VNF:         i % 2,
			Reliability: 0.9,
			Arrival:     1 + i%5,
			Duration:    1 + i%3,
			Payment:     float64(1 + i%7),
		}
	}
	inst := &workload.Instance{Network: network, Horizon: 10, Trace: trace}
	if err := inst.Validate(); err != nil {
		t.Fatalf("test instance invalid: %v", err)
	}
	return inst
}

func TestRunGreedy(t *testing.T) {
	inst := testInstance(t, 20)
	g, err := baseline.NewGreedyOnsite(inst.Network)
	if err != nil {
		t.Fatalf("NewGreedyOnsite: %v", err)
	}
	res, err := Run(inst, g)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Algorithm != "greedy-onsite" || res.Scheme != core.OnSite {
		t.Errorf("identity = %q/%v", res.Algorithm, res.Scheme)
	}
	if res.Admitted+res.Rejected != 20 {
		t.Errorf("decisions = %d+%d, want 20", res.Admitted, res.Rejected)
	}
	if len(res.Decisions) != 20 {
		t.Errorf("audit trail has %d entries", len(res.Decisions))
	}
	// Revenue equals the sum of admitted payments.
	want := 0.0
	for _, d := range res.Decisions {
		if d.Admitted {
			want += inst.Trace[d.Request].Payment
		}
	}
	if !core.FloatEq(res.Revenue, want) {
		t.Errorf("Revenue = %v, want %v", res.Revenue, want)
	}
	if res.Admitted > 0 && res.Utilization <= 0 {
		t.Errorf("Utilization = %v with %d admissions", res.Utilization, res.Admitted)
	}
	if len(res.Violations) != 0 {
		t.Errorf("greedy produced violations: %v", res.Violations)
	}
	if got := len(res.AdmittedPlacements()); got != res.Admitted {
		t.Errorf("AdmittedPlacements = %d, want %d", got, res.Admitted)
	}
	rate := res.AdmissionRate()
	if rate < 0 || rate > 1 {
		t.Errorf("AdmissionRate = %v", rate)
	}
}

func TestRunRawOnsiteAllowsViolations(t *testing.T) {
	inst := testInstance(t, 200)
	s, err := onsite.NewScheduler(inst.Network, inst.Horizon)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	res, err := Run(inst, s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Admitted == 0 {
		t.Fatal("raw scheduler admitted nothing")
	}
	// With 200 requests on tiny cloudlets, violations are expected; the
	// engine must record rather than reject them.
	if res.MaxViolationRatio > 1 && len(res.Violations) == 0 {
		t.Error("violation ratio above 1 but no cells recorded")
	}
}

func TestRunRejectsOverbookingScheduler(t *testing.T) {
	inst := testInstance(t, 200)
	s, err := onsite.NewScheduler(inst.Network, inst.Horizon)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	// Raw scheduler without the violation licence must trip the engine's
	// overbooking guard once capacity runs out (if it ever violates).
	_, err = Run(inst, unlicensed{s})
	if err != nil && !errors.Is(err, ErrSchedulerOverbooked) {
		t.Fatalf("Run err = %v, want ErrSchedulerOverbooked or nil", err)
	}
	if err == nil {
		t.Skip("raw scheduler happened to stay within capacity on this trace")
	}
}

// unlicensed forwards a scheduler's two-phase contract but not its
// violation licence, which makes the raw Algorithm 1 an overbooking
// scheduler.
type unlicensed struct{ core.Scheduler }

func TestRunValidatesPlacements(t *testing.T) {
	inst := testInstance(t, 5)
	bad := &badScheduler{}
	if _, err := Run(inst, bad); !errors.Is(err, core.ErrBelowRequirement) {
		t.Fatalf("Run err = %v, want ErrBelowRequirement", err)
	}
}

// badScheduler claims placements that do not meet the reliability
// requirement.
type badScheduler struct {
	core.Stateless[core.Request, core.Placement]
}

func (b *badScheduler) Name() string        { return "bad" }
func (b *badScheduler) Scheme() core.Scheme { return core.OnSite }
func (b *badScheduler) Propose(req core.Request, _ core.CapacityView) (core.Placement, bool) {
	return core.Placement{
		Request:     req.ID,
		Scheme:      core.OnSite,
		Assignments: []core.Assignment{{Cloudlet: 0, Instances: 1}},
	}, true
}

func TestRunInputErrors(t *testing.T) {
	inst := testInstance(t, 3)
	if _, err := Run(inst, nil); !errors.Is(err, ErrBadScheduler) {
		t.Errorf("nil scheduler err = %v", err)
	}
	g, _ := baseline.NewGreedyOnsite(inst.Network)
	if _, err := Run(nil, g); !errors.Is(err, ErrBadInstance) {
		t.Errorf("nil instance err = %v", err)
	}
	broken := testInstance(t, 3)
	broken.Horizon = 0
	if _, err := Run(broken, g); !errors.Is(err, ErrBadInstance) {
		t.Errorf("invalid instance err = %v", err)
	}
}

func TestAdmissionRateEmpty(t *testing.T) {
	r := &Result[core.Placement]{}
	if r.AdmissionRate() != 0 {
		t.Errorf("empty AdmissionRate = %v, want 0", r.AdmissionRate())
	}
}
