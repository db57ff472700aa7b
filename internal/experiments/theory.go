package experiments

import (
	"fmt"
	"strconv"
	"time"

	"revnf/internal/baseline"
	"revnf/internal/core"
	"revnf/internal/metrics"
	"revnf/internal/offsite"
	"revnf/internal/onsite"
	"revnf/internal/simulate"
	"revnf/internal/workload"
)

// ViolationStudy runs the raw (theory-faithful) Algorithm 1 across request
// loads and compares its observed capacity overcommitment against the
// violation bound ξ of Lemma 8. The observed ratio must stay under the
// bound at every load — the empirical check of the paper's second
// theoretical claim (the first, the competitive ratio, is checked in the
// root test suite against the LP bound).
func (s Setup) ViolationStudy(requestCounts []int) (*metrics.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkOnsiteFeasibility(s.K); err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title: fmt.Sprintf("Theory check — raw Algorithm 1 capacity violations vs Lemma 8 (seeds=%d)",
			len(s.Seeds)),
		Header: []string{
			"requests", "observed max ratio", "bound 1+ξ/cap_min",
			"violated cells", "competitive ratio (1+a_max)",
		},
	}
	for _, count := range requestCounts {
		var observed, bound, cells, ratio []float64
		for _, seed := range s.Seeds {
			inst, err := s.Instance(count, s.H, s.K, seed)
			if err != nil {
				return nil, err
			}
			raw, err := onsite.NewScheduler(inst.Network, inst.Horizon)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			res, err := simulate.Run(inst, raw)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			analysis, err := onsite.Analyze(inst.Network, inst.Trace)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			observed = append(observed, res.MaxViolationRatio)
			bound = append(bound, 1+analysis.ViolationRatio)
			cells = append(cells, float64(len(res.Violations)))
			ratio = append(ratio, analysis.CompetitiveRatio)
		}
		table.AddRow(
			strconv.Itoa(count),
			strconv.FormatFloat(metrics.Summarize(observed).Max, 'f', 2, 64),
			strconv.FormatFloat(metrics.Summarize(bound).Mean, 'f', 2, 64),
			metrics.FormatFloat(metrics.Summarize(cells).Mean),
			strconv.FormatFloat(metrics.Summarize(ratio).Mean, 'f', 1, 64),
		)
	}
	return table, nil
}

// ThroughputTable measures online decision throughput (requests decided
// per second, including reservation bookkeeping) for every scheduler — the
// time-complexity companion the paper omits "due to space limitation".
func (s Setup) ThroughputTable(requestCounts []int) (*metrics.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkOnsiteFeasibility(s.K); err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title:  "Runtime — online decisions per second (single core)",
		Header: []string{"requests", "pd-onsite", "greedy-onsite", "pd-offsite", "greedy-offsite"},
	}
	builds := []func(inst *workload.Instance) (core.Scheduler, error){
		func(inst *workload.Instance) (core.Scheduler, error) {
			return onsite.NewScheduler(inst.Network, inst.Horizon, onsite.WithCapacityEnforcement())
		},
		func(inst *workload.Instance) (core.Scheduler, error) { return baseline.NewGreedyOnsite(inst.Network) },
		func(inst *workload.Instance) (core.Scheduler, error) {
			return offsite.NewScheduler(inst.Network, inst.Horizon)
		},
		func(inst *workload.Instance) (core.Scheduler, error) { return baseline.NewGreedyOffsite(inst.Network) },
	}
	for _, count := range requestCounts {
		row := []string{strconv.Itoa(count)}
		for _, build := range builds {
			var total time.Duration
			decisions := 0
			for _, seed := range s.Seeds {
				inst, err := s.Instance(count, s.H, s.K, seed)
				if err != nil {
					return nil, err
				}
				sched, err := build(inst)
				if err != nil {
					return nil, fmt.Errorf("experiments: %w", err)
				}
				start := time.Now()
				if _, err := simulate.Run(inst, sched); err != nil {
					return nil, fmt.Errorf("experiments: %w", err)
				}
				total += time.Since(start)
				decisions += count
			}
			perSec := float64(decisions) / total.Seconds()
			row = append(row, strconv.FormatFloat(perSec, 'f', 0, 64))
		}
		table.AddRow(row...)
	}
	return table, nil
}
