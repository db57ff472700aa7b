package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"revnf/internal/topology"
)

// smallSetup keeps instances tiny so the simplex comparator stays fast in
// unit tests.
func smallSetup() Setup {
	return Setup{
		Topology:  topology.Abilene,
		Cloudlets: 4,
		CapMin:    20,
		CapMax:    30,
		RCMax:     0.999,
		K:         1.05,
		Horizon:   20,
		Requests:  60,
		MinDur:    1,
		MaxDur:    5,
		ReqMin:    0.90,
		ReqMax:    0.94,
		PRMax:     10,
		H:         4,
		Seeds:     []int64{1, 2},
		Optimal:   OptimalLPBound,
		OptNodes:  50,
	}
}

func checkFigure(t *testing.T, fig *FigureResult, wantSeries, wantPoints int) {
	t.Helper()
	if len(fig.Series) != wantSeries {
		t.Fatalf("series = %d, want %d", len(fig.Series), wantSeries)
	}
	for _, series := range fig.Series {
		if len(series.Points) != wantPoints {
			t.Fatalf("series %q has %d points, want %d", series.Name, len(series.Points), wantPoints)
		}
	}
	if len(fig.Table.Rows) != wantPoints {
		t.Fatalf("table rows = %d, want %d", len(fig.Table.Rows), wantPoints)
	}
	var sb strings.Builder
	if err := fig.Table.Render(&sb); err != nil {
		t.Fatalf("table render: %v", err)
	}
}

// seriesByName returns the named series or fails.
func seriesByName(t *testing.T, fig *FigureResult, name string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q not found in %v", name, fig.Table.Header)
	return Series{}
}

func TestFig1a(t *testing.T) {
	s := smallSetup()
	fig, err := s.Fig1a([]int{30, 60})
	if err != nil {
		t.Fatalf("Fig1a: %v", err)
	}
	checkFigure(t, fig, 3, 2)
	pd := seriesByName(t, fig, "pd-onsite")
	greedy := seriesByName(t, fig, "greedy-onsite")
	bound := seriesByName(t, fig, "optimal(lp-bound)")
	for i := range pd.Points {
		if pd.Points[i].Revenue.Mean <= 0 {
			t.Errorf("pd-onsite revenue at point %d is %v", i, pd.Points[i].Revenue.Mean)
		}
		// The LP relaxation upper-bounds every feasible schedule, online
		// or offline.
		if bound.Points[i].Revenue.Mean+1e-6 < pd.Points[i].Revenue.Mean {
			t.Errorf("LP bound %v below pd-onsite %v", bound.Points[i].Revenue.Mean, pd.Points[i].Revenue.Mean)
		}
		if bound.Points[i].Revenue.Mean+1e-6 < greedy.Points[i].Revenue.Mean {
			t.Errorf("LP bound %v below greedy %v", bound.Points[i].Revenue.Mean, greedy.Points[i].Revenue.Mean)
		}
	}
}

func TestFig1b(t *testing.T) {
	s := smallSetup()
	fig, err := s.Fig1b([]int{30, 60})
	if err != nil {
		t.Fatalf("Fig1b: %v", err)
	}
	checkFigure(t, fig, 3, 2)
	pd := seriesByName(t, fig, "pd-offsite")
	bound := seriesByName(t, fig, "optimal(lp-bound)")
	for i := range pd.Points {
		if pd.Points[i].Revenue.Mean <= 0 {
			t.Errorf("pd-offsite revenue at point %d is %v", i, pd.Points[i].Revenue.Mean)
		}
		if bound.Points[i].Revenue.Mean+1e-6 < pd.Points[i].Revenue.Mean {
			t.Errorf("LP bound %v below pd-offsite %v", bound.Points[i].Revenue.Mean, pd.Points[i].Revenue.Mean)
		}
	}
}

func TestFig2a(t *testing.T) {
	s := smallSetup()
	s.Optimal = OptimalNone
	fig, err := s.Fig2a([]float64{1, 5})
	if err != nil {
		t.Fatalf("Fig2a: %v", err)
	}
	checkFigure(t, fig, 2, 2)
	// H=1 gives every request the maximum payment rate, so revenue must
	// weakly exceed the H=5 point where rates are diluted.
	pd := seriesByName(t, fig, "pd-onsite")
	if pd.Points[0].Revenue.Mean < pd.Points[1].Revenue.Mean {
		t.Errorf("revenue grew with H: H=1 %v < H=5 %v",
			pd.Points[0].Revenue.Mean, pd.Points[1].Revenue.Mean)
	}
}

func TestFig2b(t *testing.T) {
	s := smallSetup()
	s.Optimal = OptimalNone
	fig, err := s.Fig2b([]float64{1.0, 1.08})
	if err != nil {
		t.Fatalf("Fig2b: %v", err)
	}
	checkFigure(t, fig, 2, 2)
	for _, series := range fig.Series {
		for i, p := range series.Points {
			if p.Revenue.Mean <= 0 {
				t.Errorf("series %q point %d revenue %v", series.Name, i, p.Revenue.Mean)
			}
		}
	}
}

func TestFig1aWithBBOptimal(t *testing.T) {
	s := smallSetup()
	s.Requests = 15
	s.Seeds = []int64{1}
	s.Optimal = OptimalBB
	s.OptNodes = 60
	fig, err := s.Fig1a([]int{15})
	if err != nil {
		t.Fatalf("Fig1a: %v", err)
	}
	checkFigure(t, fig, 3, 1)
	pd := seriesByName(t, fig, "pd-onsite")
	opt := seriesByName(t, fig, "optimal(bb)")
	// A feasible offline incumbent from enough B&B nodes should not trail
	// the online algorithm on such a small instance.
	if opt.Points[0].Revenue.Mean+1e-6 < pd.Points[0].Revenue.Mean*0.5 {
		t.Errorf("B&B incumbent %v implausibly low vs online %v",
			opt.Points[0].Revenue.Mean, pd.Points[0].Revenue.Mean)
	}
}

func TestSetupValidation(t *testing.T) {
	s := smallSetup()
	s.Seeds = nil
	if _, err := s.Fig1a([]int{10}); !errors.Is(err, ErrBadSetup) {
		t.Errorf("no seeds err = %v", err)
	}
	s = smallSetup()
	s.Optimal = OptimalMode(99)
	if _, err := s.Fig1b([]int{10}); !errors.Is(err, ErrBadSetup) {
		t.Errorf("bad optimal mode err = %v", err)
	}
	s = smallSetup()
	s.ReqMax = 0.99 // above rc_min = 0.999/1.05
	if _, err := s.Fig1a([]int{10}); !errors.Is(err, ErrBadSetup) {
		t.Errorf("on-site feasibility err = %v", err)
	}
	if _, err := s.Fig2a([]float64{1}); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Fig2a feasibility err = %v", err)
	}
	// Fig2b is off-site and must accept the same setup.
	s.Optimal = OptimalNone
	s.Requests = 20
	if _, err := s.Fig2b([]float64{1.05}); err != nil {
		t.Errorf("Fig2b rejected off-site-legal setup: %v", err)
	}
}

func TestDefaultSetupIsValid(t *testing.T) {
	s := DefaultSetup()
	if err := s.Validate(); err != nil {
		t.Fatalf("DefaultSetup invalid: %v", err)
	}
	if err := s.checkOnsiteFeasibility(s.K); err != nil {
		t.Fatalf("DefaultSetup on-site infeasible: %v", err)
	}
	// The default setup must materialize without error.
	if _, err := s.Instance(20, s.H, s.K, 1); err != nil {
		t.Fatalf("DefaultSetup instance: %v", err)
	}
}

func TestAblationScale(t *testing.T) {
	s := smallSetup()
	s.Requests = 40
	tbl, err := s.AblationScale([]float64{1, 2})
	if err != nil {
		t.Fatalf("AblationScale: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
}

func TestAblationDualUpdate(t *testing.T) {
	s := smallSetup()
	s.Optimal = OptimalNone
	fig, err := s.AblationDualUpdate([]int{30})
	if err != nil {
		t.Fatalf("AblationDualUpdate: %v", err)
	}
	checkFigure(t, fig, 2, 1)
}

func TestAblationSortKey(t *testing.T) {
	s := smallSetup()
	s.Optimal = OptimalNone
	fig, err := s.AblationSortKey([]int{30})
	if err != nil {
		t.Fatalf("AblationSortKey: %v", err)
	}
	checkFigure(t, fig, 3, 1)
}

func TestAblationOptBudget(t *testing.T) {
	s := smallSetup()
	s.Requests = 12
	tbl, err := s.AblationOptBudget([]int{1, 50})
	if err != nil {
		t.Fatalf("AblationOptBudget: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
}

func TestAblationLatencyPenalty(t *testing.T) {
	s := smallSetup()
	s.Requests = 40
	tbl, err := s.AblationLatencyPenalty([]float64{0, 5})
	if err != nil {
		t.Fatalf("AblationLatencyPenalty: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
}

func TestChainComparison(t *testing.T) {
	s := smallSetup()
	s.Optimal = OptimalLPBound
	tbl, err := s.ChainComparison([]int{20, 40})
	if err != nil {
		t.Fatalf("ChainComparison: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	// The bound column must not trail the online columns.
	s.Optimal = OptimalBB
	s.OptNodes = 30
	if _, err := s.ChainComparison([]int{15}); err != nil {
		t.Fatalf("ChainComparison(BB): %v", err)
	}
}

func TestViolationStudy(t *testing.T) {
	s := smallSetup()
	tbl, err := s.ViolationStudy([]int{40, 80})
	if err != nil {
		t.Fatalf("ViolationStudy: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	// Lemma 8 must hold: observed ratio ≤ bound on every row.
	for _, row := range tbl.Rows {
		observed, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("parse observed: %v", err)
		}
		bound, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("parse bound: %v", err)
		}
		if observed > bound {
			t.Errorf("requests %s: observed violation %v exceeds Lemma 8 bound %v", row[0], observed, bound)
		}
	}
}

func TestThroughputTable(t *testing.T) {
	s := smallSetup()
	tbl, err := s.ThroughputTable([]int{40})
	if err != nil {
		t.Fatalf("ThroughputTable: %v", err)
	}
	if len(tbl.Rows) != 1 || len(tbl.Rows[0]) != 5 {
		t.Fatalf("table shape wrong: %+v", tbl.Rows)
	}
	for c := 1; c < 5; c++ {
		v, err := strconv.ParseFloat(tbl.Rows[0][c], 64)
		if err != nil || v <= 0 {
			t.Errorf("column %d throughput %q invalid", c, tbl.Rows[0][c])
		}
	}
}
