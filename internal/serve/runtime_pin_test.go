package serve

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/onsite"
	"revnf/internal/shared"
)

// pinWindow is the pin runs' window length: the rolling width, and a
// quarter of the fixed horizon.
const pinWindow = 12

// pinNetwork is a four-cloudlet fleet small enough to fill: repairs
// (make-before-break) sometimes find no room, so placements degrade as
// well as recover.
func pinNetwork() *core.Network {
	n := &core.Network{Catalog: []core.VNF{{ID: 0, Name: "fw", Demand: 2, Reliability: 0.8}}}
	for j := 0; j < 4; j++ {
		n.Cloudlets = append(n.Cloudlets, core.Cloudlet{
			ID: j, Node: -1, Capacity: 16, Reliability: 0.96 + 0.01*float64(j),
		})
	}
	return n
}

// runtimePinFamilies are the metric families the failure runtime renders.
var runtimePinFamilies = []string{
	"revnfd_chaos_slots_total",
	"revnfd_failure_episodes_total",
	"revnfd_repairs_total",
	"revnfd_repair_failures_total",
	"revnfd_degraded_placements_total",
	"revnfd_downtime_slots_total",
	"revnfd_slo_met_total",
	"revnfd_slo_missed_total",
	"revnfd_slo_mean_provisioned_availability",
	"revnfd_slo_mean_observed_availability",
	"revnfd_repair_latency_slots",
	"revnfd_estimated_reliability",
}

// runtimePinSnapshot renders what an operator reads of the failure runtime
// at the current slot: its /metrics families, in scrape order, and the
// health endpoint's status and body for each id.
func runtimePinSnapshot(t *testing.T, e *Engine, h http.Handler, ids []int) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "slot %d\n", e.Slot())
	var scrape strings.Builder
	if err := e.WriteMetrics(&scrape); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(strings.NewReader(scrape.String()))
	for lines.Scan() {
		line := lines.Text()
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		for _, fam := range runtimePinFamilies {
			if rest, ok := strings.CutPrefix(name, fam); ok && (rest == "" || strings.IndexAny(rest[:1], " {_") == 0) {
				sb.WriteString(line)
				sb.WriteByte('\n')
				break
			}
		}
	}
	for _, id := range ids {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/placements/%d/health", id), nil))
		fmt.Fprintf(&sb, "health %d: %d %s", id, rr.Code, rr.Body.String())
	}
	return sb.String()
}

// runtimePinRun drives one seeded chaos run of four window lengths — four
// submissions a slot, durations 1–8 — then drains it, and returns the
// snapshots taken two window lengths in and after the drain.
func runtimePinRun(t *testing.T, newSched func(*core.Network, int) (core.Scheduler, error), horizon, workers int, rolling bool, seed int64, ids []int) (mid, end string) {
	t.Helper()
	n := pinNetwork()
	sched, err := newSched(n, horizon)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, len(n.Cloudlets))
	for j, cl := range n.Cloudlets {
		rates[j] = cl.Reliability - 0.1
	}
	var inj *chaos.Injector
	inj, err = chaos.New(chaos.Config{Network: n, CloudletMTTR: 3, InstanceMTTR: 2, CloudletRates: rates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var e *Engine
	e, err = New(Config{
		Network: n, Scheduler: sched, Horizon: horizon, Rolling: rolling,
		Workers: workers, Chaos: inj, RepairAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, e)
	h := NewHandler(e)
	for slot := 1; slot <= 4*pinWindow; slot = e.Tick().Slot {
		for i := 0; i < 4; i++ {
			submit(t, e, AdmissionRequest{VNF: 0, Reliability: 0.9, Duration: 1 + (slot+i)%8, Payment: 100})
		}
		if slot == 2*pinWindow {
			mid = runtimePinSnapshot(t, e, h, ids)
		}
	}
	for i := 0; i < pinWindow; i++ {
		e.Tick()
	}
	return mid, runtimePinSnapshot(t, e, h, ids)
}

// TestRuntimePin pins the failure runtime's observable behaviour on two
// seeded chaos runs: fixed-horizon pd-onsite deciding at two worker tokens,
// and rolling pd-shared at one. It reads only what an operator reads — the
// runtime's /metrics families byte for byte, and the health JSON of three
// placements: one repaired, one degraded mid-window, one degraded when its
// window ended below its requirement. The ids were picked from these runs.
func TestRuntimePin(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sched    func(n *core.Network, horizon int) (core.Scheduler, error)
		horizon  int
		workers  int
		rolling  bool
		seed     int64
		ids      []int
		mid, end string
	}{
		{
			name: "onsite-fixed",
			sched: func(n *core.Network, horizon int) (core.Scheduler, error) {
				s, err := onsite.NewScheduler(n, horizon, onsite.WithCapacityEnforcement())
				return s, err
			},
			horizon: 4 * pinWindow, workers: 2, seed: 11,
			ids: []int{79, 81, 145},
			mid: `slot 24
# HELP revnfd_chaos_slots_total Slots the chaos injector has stepped.
# TYPE revnfd_chaos_slots_total counter
revnfd_chaos_slots_total 23
# HELP revnfd_failure_episodes_total Failure episodes opened: placements whose surviving instances dropped below their reliability target.
# TYPE revnfd_failure_episodes_total counter
revnfd_failure_episodes_total 30
# HELP revnfd_repairs_total Failure episodes closed by a successful re-placement through the admission pipeline.
# TYPE revnfd_repairs_total counter
revnfd_repairs_total 28
# HELP revnfd_repair_failures_total Repair attempts that could not be placed (declined, priced out, or out of capacity).
# TYPE revnfd_repair_failures_total counter
revnfd_repair_failures_total 6
# HELP revnfd_degraded_placements_total Placements whose repair budget was exhausted or whose window ended below its SLO.
# TYPE revnfd_degraded_placements_total counter
revnfd_degraded_placements_total 1
# HELP revnfd_downtime_slots_total Placement-slots with no live instance, summed over all tracked placements.
# TYPE revnfd_downtime_slots_total counter
revnfd_downtime_slots_total 0
# HELP revnfd_slo_met_total Expired placements that delivered their required availability.
# TYPE revnfd_slo_met_total counter
revnfd_slo_met_total 42
# HELP revnfd_slo_missed_total Expired placements that delivered below their required availability.
# TYPE revnfd_slo_missed_total counter
revnfd_slo_missed_total 0
# HELP revnfd_slo_mean_provisioned_availability Mean availability promised at admission across expired placements.
# TYPE revnfd_slo_mean_provisioned_availability gauge
revnfd_slo_mean_provisioned_availability 0.9362285714285713
# HELP revnfd_slo_mean_observed_availability Mean availability delivered across expired placements.
# TYPE revnfd_slo_mean_observed_availability gauge
revnfd_slo_mean_observed_availability 1
# HELP revnfd_repair_latency_slots Slots failure episodes stayed open before a successful repair.
# TYPE revnfd_repair_latency_slots histogram
revnfd_repair_latency_slots_bucket{le="0"} 25
revnfd_repair_latency_slots_bucket{le="1"} 28
revnfd_repair_latency_slots_bucket{le="2"} 28
revnfd_repair_latency_slots_bucket{le="4"} 28
revnfd_repair_latency_slots_bucket{le="8"} 28
revnfd_repair_latency_slots_bucket{le="16"} 28
revnfd_repair_latency_slots_bucket{le="32"} 28
revnfd_repair_latency_slots_bucket{le="+Inf"} 28
revnfd_repair_latency_slots_sum 3
revnfd_repair_latency_slots_count 28
# HELP revnfd_estimated_reliability Online Beta-posterior estimate of each cloudlet's availability r(c_j).
# TYPE revnfd_estimated_reliability gauge
revnfd_estimated_reliability{cloudlet="0"} 0.8088888888888889
revnfd_estimated_reliability{cloudlet="1"} 0.9585185185185184
revnfd_estimated_reliability{cloudlet="2"} 0.997037037037037
revnfd_estimated_reliability{cloudlet="3"} 0.9244444444444445
health 79: 200 {"id":79,"state":"active","scheme":"on-site","required":0.9,"provisioned":0.9311999999999999,"observed":1,"window_slots":7,"observed_slots":4,"up_slots":4,"down_slots":0,"repairs":1,"repair_latency_slots":0,"degraded":false,"slo_met":true,"window_base":1}
health 81: 200 {"id":81,"state":"degraded","scheme":"on-site","required":0.9,"provisioned":0.9408,"observed":1,"window_slots":6,"observed_slots":3,"up_slots":3,"down_slots":0,"repairs":0,"repair_latency_slots":0,"degraded":true,"slo_met":true,"window_base":1}
health 145: 404 {"code":404,"reason":"not-found","detail":"no SLO account for placement 145"}
`,
			end: `slot 61
# HELP revnfd_chaos_slots_total Slots the chaos injector has stepped.
# TYPE revnfd_chaos_slots_total counter
revnfd_chaos_slots_total 47
# HELP revnfd_failure_episodes_total Failure episodes opened: placements whose surviving instances dropped below their reliability target.
# TYPE revnfd_failure_episodes_total counter
revnfd_failure_episodes_total 58
# HELP revnfd_repairs_total Failure episodes closed by a successful re-placement through the admission pipeline.
# TYPE revnfd_repairs_total counter
revnfd_repairs_total 54
# HELP revnfd_repair_failures_total Repair attempts that could not be placed (declined, priced out, or out of capacity).
# TYPE revnfd_repair_failures_total counter
revnfd_repair_failures_total 10
# HELP revnfd_degraded_placements_total Placements whose repair budget was exhausted or whose window ended below its SLO.
# TYPE revnfd_degraded_placements_total counter
revnfd_degraded_placements_total 3
# HELP revnfd_downtime_slots_total Placement-slots with no live instance, summed over all tracked placements.
# TYPE revnfd_downtime_slots_total counter
revnfd_downtime_slots_total 2
# HELP revnfd_slo_met_total Expired placements that delivered their required availability.
# TYPE revnfd_slo_met_total counter
revnfd_slo_met_total 94
# HELP revnfd_slo_missed_total Expired placements that delivered below their required availability.
# TYPE revnfd_slo_missed_total counter
revnfd_slo_missed_total 2
# HELP revnfd_slo_mean_provisioned_availability Mean availability promised at admission across expired placements.
# TYPE revnfd_slo_mean_provisioned_availability gauge
revnfd_slo_mean_provisioned_availability 0.9363000000000001
# HELP revnfd_slo_mean_observed_availability Mean availability delivered across expired placements.
# TYPE revnfd_slo_mean_observed_availability gauge
revnfd_slo_mean_observed_availability 0.9961805555555555
# HELP revnfd_repair_latency_slots Slots failure episodes stayed open before a successful repair.
# TYPE revnfd_repair_latency_slots histogram
revnfd_repair_latency_slots_bucket{le="0"} 49
revnfd_repair_latency_slots_bucket{le="1"} 54
revnfd_repair_latency_slots_bucket{le="2"} 54
revnfd_repair_latency_slots_bucket{le="4"} 54
revnfd_repair_latency_slots_bucket{le="8"} 54
revnfd_repair_latency_slots_bucket{le="16"} 54
revnfd_repair_latency_slots_bucket{le="32"} 54
revnfd_repair_latency_slots_bucket{le="+Inf"} 54
revnfd_repair_latency_slots_sum 5
revnfd_repair_latency_slots_count 54
# HELP revnfd_estimated_reliability Online Beta-posterior estimate of each cloudlet's availability r(c_j).
# TYPE revnfd_estimated_reliability gauge
revnfd_estimated_reliability{cloudlet="0"} 0.8792156862745099
revnfd_estimated_reliability{cloudlet="1"} 0.9584313725490197
revnfd_estimated_reliability{cloudlet="2"} 0.9984313725490196
revnfd_estimated_reliability{cloudlet="3"} 0.8423529411764706
health 79: 200 {"id":79,"state":"expired","scheme":"on-site","required":0.9,"provisioned":0.9311999999999999,"observed":1,"window_slots":7,"observed_slots":6,"up_slots":6,"down_slots":0,"repairs":2,"repair_latency_slots":0,"degraded":false,"slo_met":true,"window_base":1}
health 81: 200 {"id":81,"state":"degraded","scheme":"on-site","required":0.9,"provisioned":0.9408,"observed":1,"window_slots":6,"observed_slots":5,"up_slots":5,"down_slots":0,"repairs":0,"repair_latency_slots":0,"degraded":true,"slo_met":true,"window_base":1}
health 145: 200 {"id":145,"state":"expired","scheme":"on-site","required":0.9,"provisioned":0.9311999999999999,"observed":0.8,"window_slots":6,"observed_slots":5,"up_slots":4,"down_slots":1,"repairs":1,"repair_latency_slots":0,"degraded":true,"slo_met":false,"window_base":1}
`,
		},
		{
			name: "shared-rolling",
			sched: func(n *core.Network, horizon int) (core.Scheduler, error) {
				s, err := shared.NewScheduler(n, horizon, shared.WithPoolSize(2))
				return s, err
			},
			horizon: pinWindow, workers: 1, rolling: true, seed: 14,
			ids: []int{89, 47, 14},
			mid: `slot 24
# HELP revnfd_chaos_slots_total Slots the chaos injector has stepped.
# TYPE revnfd_chaos_slots_total counter
revnfd_chaos_slots_total 23
# HELP revnfd_failure_episodes_total Failure episodes opened: placements whose surviving instances dropped below their reliability target.
# TYPE revnfd_failure_episodes_total counter
revnfd_failure_episodes_total 51
# HELP revnfd_repairs_total Failure episodes closed by a successful re-placement through the admission pipeline.
# TYPE revnfd_repairs_total counter
revnfd_repairs_total 48
# HELP revnfd_repair_failures_total Repair attempts that could not be placed (declined, priced out, or out of capacity).
# TYPE revnfd_repair_failures_total counter
revnfd_repair_failures_total 10
# HELP revnfd_degraded_placements_total Placements whose repair budget was exhausted or whose window ended below its SLO.
# TYPE revnfd_degraded_placements_total counter
revnfd_degraded_placements_total 4
# HELP revnfd_downtime_slots_total Placement-slots with no live instance, summed over all tracked placements.
# TYPE revnfd_downtime_slots_total counter
revnfd_downtime_slots_total 2
# HELP revnfd_slo_met_total Expired placements that delivered their required availability.
# TYPE revnfd_slo_met_total counter
revnfd_slo_met_total 51
# HELP revnfd_slo_missed_total Expired placements that delivered below their required availability.
# TYPE revnfd_slo_missed_total counter
revnfd_slo_missed_total 2
# HELP revnfd_slo_mean_provisioned_availability Mean availability promised at admission across expired placements.
# TYPE revnfd_slo_mean_provisioned_availability gauge
revnfd_slo_mean_provisioned_availability 0.9316920803018869
# HELP revnfd_slo_mean_observed_availability Mean availability delivered across expired placements.
# TYPE revnfd_slo_mean_observed_availability gauge
revnfd_slo_mean_observed_availability 0.993530997304582
# HELP revnfd_repair_latency_slots Slots failure episodes stayed open before a successful repair.
# TYPE revnfd_repair_latency_slots histogram
revnfd_repair_latency_slots_bucket{le="0"} 44
revnfd_repair_latency_slots_bucket{le="1"} 48
revnfd_repair_latency_slots_bucket{le="2"} 48
revnfd_repair_latency_slots_bucket{le="4"} 48
revnfd_repair_latency_slots_bucket{le="8"} 48
revnfd_repair_latency_slots_bucket{le="16"} 48
revnfd_repair_latency_slots_bucket{le="32"} 48
revnfd_repair_latency_slots_bucket{le="+Inf"} 48
revnfd_repair_latency_slots_sum 4
revnfd_repair_latency_slots_count 48
# HELP revnfd_estimated_reliability Online Beta-posterior estimate of each cloudlet's availability r(c_j).
# TYPE revnfd_estimated_reliability gauge
revnfd_estimated_reliability{cloudlet="0"} 0.92
revnfd_estimated_reliability{cloudlet="1"} 0.8474074074074074
revnfd_estimated_reliability{cloudlet="2"} 0.997037037037037
revnfd_estimated_reliability{cloudlet="3"} 0.8874074074074074
health 89: 200 {"id":89,"state":"active","scheme":"shared","backup_group":{"group":28,"cloudlet":3,"pool_size":2},"required":0.9,"provisioned":0.930429696,"observed":1,"window_slots":8,"observed_slots":1,"up_slots":1,"down_slots":0,"repairs":0,"repair_latency_slots":0,"degraded":false,"slo_met":true,"window_base":20}
health 47: 200 {"id":47,"state":"degraded","scheme":"shared","backup_group":{"group":17,"cloudlet":3,"pool_size":2},"required":0.9,"provisioned":0.932828672,"observed":1,"window_slots":7,"observed_slots":6,"up_slots":6,"down_slots":0,"repairs":0,"repair_latency_slots":0,"degraded":true,"slo_met":true,"window_base":20}
health 14: 200 {"id":14,"state":"expired","scheme":"shared","backup_group":{"group":9,"cloudlet":1,"pool_size":2},"required":0.9,"provisioned":0.928788992,"observed":0.8,"window_slots":6,"observed_slots":5,"up_slots":4,"down_slots":1,"repairs":2,"repair_latency_slots":1,"degraded":true,"slo_met":false,"window_base":20}
`,
			end: `slot 61
# HELP revnfd_chaos_slots_total Slots the chaos injector has stepped.
# TYPE revnfd_chaos_slots_total counter
revnfd_chaos_slots_total 60
# HELP revnfd_failure_episodes_total Failure episodes opened: placements whose surviving instances dropped below their reliability target.
# TYPE revnfd_failure_episodes_total counter
revnfd_failure_episodes_total 126
# HELP revnfd_repairs_total Failure episodes closed by a successful re-placement through the admission pipeline.
# TYPE revnfd_repairs_total counter
revnfd_repairs_total 123
# HELP revnfd_repair_failures_total Repair attempts that could not be placed (declined, priced out, or out of capacity).
# TYPE revnfd_repair_failures_total counter
revnfd_repair_failures_total 13
# HELP revnfd_degraded_placements_total Placements whose repair budget was exhausted or whose window ended below its SLO.
# TYPE revnfd_degraded_placements_total counter
revnfd_degraded_placements_total 4
# HELP revnfd_downtime_slots_total Placement-slots with no live instance, summed over all tracked placements.
# TYPE revnfd_downtime_slots_total counter
revnfd_downtime_slots_total 2
# HELP revnfd_slo_met_total Expired placements that delivered their required availability.
# TYPE revnfd_slo_met_total counter
revnfd_slo_met_total 119
# HELP revnfd_slo_missed_total Expired placements that delivered below their required availability.
# TYPE revnfd_slo_missed_total counter
revnfd_slo_missed_total 2
# HELP revnfd_slo_mean_provisioned_availability Mean availability promised at admission across expired placements.
# TYPE revnfd_slo_mean_provisioned_availability gauge
revnfd_slo_mean_provisioned_availability 0.9316901045950406
# HELP revnfd_slo_mean_observed_availability Mean availability delivered across expired placements.
# TYPE revnfd_slo_mean_observed_availability gauge
revnfd_slo_mean_observed_availability 0.9971664698937425
# HELP revnfd_repair_latency_slots Slots failure episodes stayed open before a successful repair.
# TYPE revnfd_repair_latency_slots histogram
revnfd_repair_latency_slots_bucket{le="0"} 116
revnfd_repair_latency_slots_bucket{le="1"} 123
revnfd_repair_latency_slots_bucket{le="2"} 123
revnfd_repair_latency_slots_bucket{le="4"} 123
revnfd_repair_latency_slots_bucket{le="8"} 123
revnfd_repair_latency_slots_bucket{le="16"} 123
revnfd_repair_latency_slots_bucket{le="32"} 123
revnfd_repair_latency_slots_bucket{le="+Inf"} 123
revnfd_repair_latency_slots_sum 7
revnfd_repair_latency_slots_count 123
# HELP revnfd_estimated_reliability Online Beta-posterior estimate of each cloudlet's availability r(c_j).
# TYPE revnfd_estimated_reliability gauge
revnfd_estimated_reliability{cloudlet="0"} 0.825625
revnfd_estimated_reliability{cloudlet="1"} 0.8731249999999999
revnfd_estimated_reliability{cloudlet="2"} 0.983125
revnfd_estimated_reliability{cloudlet="3"} 0.85875
health 89: 200 {"id":89,"state":"expired","scheme":"shared","backup_group":{"group":37,"cloudlet":1,"pool_size":2},"required":0.9,"provisioned":0.930429696,"observed":1,"window_slots":8,"observed_slots":7,"up_slots":7,"down_slots":0,"repairs":2,"repair_latency_slots":0,"degraded":false,"slo_met":true,"window_base":61}
health 47: 200 {"id":47,"state":"degraded","scheme":"shared","backup_group":{"group":17,"cloudlet":3,"pool_size":2},"required":0.9,"provisioned":0.932828672,"observed":1,"window_slots":7,"observed_slots":6,"up_slots":6,"down_slots":0,"repairs":0,"repair_latency_slots":0,"degraded":true,"slo_met":true,"window_base":61}
health 14: 200 {"id":14,"state":"expired","scheme":"shared","backup_group":{"group":9,"cloudlet":1,"pool_size":2},"required":0.9,"provisioned":0.928788992,"observed":0.8,"window_slots":6,"observed_slots":5,"up_slots":4,"down_slots":1,"repairs":2,"repair_latency_slots":1,"degraded":true,"slo_met":false,"window_base":61}
`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mid, end := runtimePinRun(t, tc.sched, tc.horizon, tc.workers, tc.rolling, tc.seed, tc.ids)
			if mid != tc.mid {
				t.Errorf("two windows in:\n%s\nwant:\n%s", mid, tc.mid)
			}
			if end != tc.end {
				t.Errorf("after the drain:\n%s\nwant:\n%s", end, tc.end)
			}
		})
	}
}
