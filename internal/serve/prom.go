package serve

import (
	"io"
	"slices"
	"strconv"

	"revnf/internal/core"
	"revnf/internal/metrics"
)

// WriteMetrics renders the engine's counters in the Prometheus text
// exposition format: admission/rejection/revenue counters, the slot and
// queue gauges, per-cloudlet utilization at the current slot, and the
// admission latency histogram.
func (e *Engine) WriteMetrics(w io.Writer) error {
	s := e.Stats()
	families := []metrics.PromMetric{
		metrics.Counter("revnfd_admissions_total",
			"Requests admitted since start.", float64(s.Admitted)),
		rejectionFamily(s.Rejections),
		metrics.Counter("revnfd_revenue_total",
			"Summed payment of admitted requests (paper objective (6)).", s.Revenue),
		metrics.Counter("revnfd_expirations_total",
			"Placements whose windows ended and whose capacity was released.", float64(s.Expired)),
		metrics.Gauge("revnfd_active_placements",
			"Admitted placements not yet expired.", float64(s.ActivePlacements)),
		metrics.Gauge("revnfd_backup_groups",
			"Shared-backup groups holding ledger capacity (0 without -scheme shared).", float64(s.BackupGroups)),
		metrics.Gauge("revnfd_placements_filed",
			"Entries of the placement history: every admission stays retrievable.", float64(s.FiledPlacements)),
		metrics.Gauge("revnfd_placement_book_bytes",
			"Heap held by the placement history: its chunks in memory, counted whole, their block rows, and every chunk's span.", float64(s.BookBytes)),
		metrics.Gauge("revnfd_placement_history_spilled_bytes",
			"Older placement-history chunks in its unlinked spill file under $TMPDIR.", float64(s.SpilledBytes)),
		metrics.Counter("revnfd_placement_history_spill_errors_total",
			"Failed spills (the chunk stayed in memory) and cold reads (not found) of the placement history.", float64(s.SpillErrors)),
		metrics.Gauge("revnfd_placement_history_late_ids",
			"Placement-history IDs in its late map (refiled by the failure runtime, or filed past a sealed block): heap that grows with the run.", float64(s.LateIDs)),
		metrics.Counter("revnfd_clock_panics_total",
			"Ticks of the real-time slot clock that panicked; the clock kept going.", float64(e.clockPanics.Load())),
		metrics.Gauge("revnfd_current_slot",
			"Current time slot of the slot clock.", float64(s.Slot)),
		metrics.Gauge("revnfd_horizon_slots",
			"Served horizon in slots: the fixed T, or the rolling window width W.", float64(s.Horizon)),
		metrics.Gauge("revnfd_window_base",
			"First live slot of the ledger window; fixed at 1 without -horizon-mode rolling.",
			float64(s.WindowBase)),
		metrics.Gauge("revnfd_window_size",
			"Width of the live ledger window in slots (equals revnfd_horizon_slots).",
			float64(s.Horizon)),
		metrics.Gauge("revnfd_queue_depth",
			"Submissions accepted and not yet decided: waiting for a worker token or deciding.", float64(s.QueueDepth)),
		metrics.Gauge("revnfd_queue_capacity",
			"Bound on submissions waiting for a worker token beyond the workers deciding.", float64(s.QueueCapacity)),
		metrics.Gauge("revnfd_workers",
			"Decision concurrency: the number of worker tokens.", float64(s.Workers)),
		metrics.Gauge("revnfd_inflight_decisions",
			"Worker tokens held right now: decisions executing, plus a tick of the failure runtime.", float64(s.InFlight)),
		metrics.Counter("revnfd_conflict_retries_total",
			"Ledger refusals of a footprint its view had room for (a lost commit race); each triggers a re-propose.",
			float64(s.ConflictRetries)),
		{
			Name: "revnfd_ledger_view_loads_total",
			Help: "Window loads decisions asked of their ledger view: hit kept the copy it had (nothing written since, no lock), refresh took the ledger lock to re-copy only the rows written since its copy, copy took it to copy every row.",
			Type: "counter",
			Samples: []metrics.PromSample{
				{Labels: []metrics.LabelPair{{Name: "result", Value: "hit"}}, Value: float64(s.ViewLoads - s.ViewRefreshes - s.ViewCopies)},
				{Labels: []metrics.LabelPair{{Name: "result", Value: "refresh"}}, Value: float64(s.ViewRefreshes)},
				{Labels: []metrics.LabelPair{{Name: "result", Value: "copy"}}, Value: float64(s.ViewCopies)},
			},
		},
		utilizationFamily(s),
		s.Latency.Metric("revnfd_admission_latency_seconds",
			"Latency from submission to admission decision: one observation per POST and per streamed batch."),
	}
	families = append(families, e.ingestFamilies()...)
	if e.traces != nil {
		st := e.traces.Stats()
		families = append(families,
			metrics.Counter("revnfd_trace_recorded_total",
				"Decision-trace records accepted by the ring store.", float64(st.Recorded)),
			metrics.Counter("revnfd_trace_evicted_total",
				"Decision traces evicted from the ring store to make room.", float64(st.Evicted)),
			metrics.Gauge("revnfd_trace_store_entries",
				"Decision traces currently resident in the ring store.", float64(st.Len)),
			metrics.Gauge("revnfd_trace_store_capacity",
				"Capacity of the decision-trace ring store.", float64(st.Capacity)),
		)
	}
	if lr, ok := e.sched.(core.LambdaReader); ok {
		maxSlot := s.WindowBase + e.horizon - 1
		if !s.Rolling {
			maxSlot = e.horizon
		}
		families = append(families, lambdaFamily(lr, len(e.network.Cloudlets), s.Slot, maxSlot))
	}
	if e.chaos {
		families = append(families, e.runtimeFamilies()...)
	}
	return metrics.WriteProm(w, families)
}

// runtimeFamilies renders the failure runtime — chaos progress, repair
// outcomes, SLO delivery, and the online reliability estimates — from one
// snapshot under the engine lock. Chaos must be on.
func (e *Engine) runtimeFamilies() []metrics.PromMetric {
	e.mu.Lock()
	defer e.mu.Unlock()
	rt := e.runtime
	rs := rt.repairs
	ss := rt.slo.Stats()
	est := metrics.PromMetric{
		Name: "revnfd_estimated_reliability",
		Help: "Online Beta-posterior estimate of each cloudlet's availability r(c_j).",
		Type: "gauge",
	}
	for j, n := 0, rt.est.Cloudlets(); j < n; j++ {
		est.Samples = append(est.Samples, metrics.PromSample{
			Labels: []metrics.LabelPair{{Name: "cloudlet", Value: strconv.Itoa(j)}},
			Value:  rt.est.CloudletReliability(j),
		})
	}
	return []metrics.PromMetric{
		metrics.Counter("revnfd_chaos_slots_total",
			"Slots the chaos injector has stepped.", float64(rt.slots)),
		metrics.Counter("revnfd_failure_episodes_total",
			"Failure episodes opened: placements whose surviving instances dropped below their reliability target.",
			float64(rs.Episodes)),
		metrics.Counter("revnfd_repairs_total",
			"Failure episodes closed by a successful re-placement through the admission pipeline.",
			float64(rs.Repairs)),
		metrics.Counter("revnfd_repair_failures_total",
			"Repair attempts that could not be placed (declined, priced out, or out of capacity).",
			float64(rs.FailedAttempts)),
		metrics.Counter("revnfd_degraded_placements_total",
			"Placements whose repair budget was exhausted or whose window ended below its SLO.",
			float64(rt.degraded)),
		metrics.Counter("revnfd_downtime_slots_total",
			"Placement-slots with no live instance, summed over all tracked placements.",
			float64(ss.DowntimeSlots)),
		metrics.Counter("revnfd_slo_met_total",
			"Expired placements that delivered their required availability.", float64(ss.Met)),
		metrics.Counter("revnfd_slo_missed_total",
			"Expired placements that delivered below their required availability.", float64(ss.Missed)),
		metrics.Gauge("revnfd_slo_mean_provisioned_availability",
			"Mean availability promised at admission across expired placements.", ss.MeanProvisioned),
		metrics.Gauge("revnfd_slo_mean_observed_availability",
			"Mean availability delivered across expired placements.", ss.MeanObserved),
		rt.slo.RepairLatency().Metric("revnfd_repair_latency_slots",
			"Slots failure episodes stayed open before a successful repair."),
		est,
	}
}

// lambdaFamily summarizes the primal-dual scheduler's dual prices: per
// cloudlet, the price λ_{tj} at the current slot and the maximum from the
// current slot to the end of the live window (maxSlot — the horizon T in
// fixed mode, the window's far edge in rolling mode). The full T×K
// surface would be an unbounded label space; these two gauges track how
// congestion pricing is building up.
func lambdaFamily(lr core.LambdaReader, cloudlets, slot, maxSlot int) metrics.PromMetric {
	fam := metrics.PromMetric{
		Name: "revnfd_dual_price",
		Help: "Dual price lambda of each cloudlet: at the current slot, and the max over the remaining window.",
		Type: "gauge",
	}
	for j := 0; j < cloudlets; j++ {
		now := lr.Lambda(j, slot)
		max := 0.0
		for t := slot; t <= maxSlot; t++ {
			if v := lr.Lambda(j, t); v > max {
				max = v
			}
		}
		label := strconv.Itoa(j)
		fam.Samples = append(fam.Samples,
			metrics.PromSample{
				Labels: []metrics.LabelPair{{Name: "cloudlet", Value: label}, {Name: "window", Value: "current"}},
				Value:  now,
			},
			metrics.PromSample{
				Labels: []metrics.LabelPair{{Name: "cloudlet", Value: label}, {Name: "window", Value: "max"}},
				Value:  max,
			},
		)
	}
	return fam
}

func rejectionFamily(rejections map[string]uint64) metrics.PromMetric {
	fam := metrics.PromMetric{
		Name: "revnfd_rejections_total",
		Help: "Requests rejected since start, by reason.",
		Type: "counter",
	}
	// Every reason is always exposed so scrapes see stable series.
	reasons := rejectionReasons
	slices.Sort(reasons[:])
	for _, r := range reasons {
		fam.Samples = append(fam.Samples, metrics.PromSample{
			Labels: []metrics.LabelPair{{Name: "reason", Value: r}},
			Value:  float64(rejections[r]),
		})
	}
	return fam
}

func utilizationFamily(s Stats) metrics.PromMetric {
	fam := metrics.PromMetric{
		Name: "revnfd_cloudlet_utilization",
		Help: "Fraction of each cloudlet's capacity in use at the current slot.",
		Type: "gauge",
	}
	for j := range s.CloudletCapacity {
		util := 0.0
		if s.CloudletCapacity[j] > 0 {
			util = float64(s.CloudletUsed[j]) / float64(s.CloudletCapacity[j])
		}
		fam.Samples = append(fam.Samples, metrics.PromSample{
			Labels: []metrics.LabelPair{{Name: "cloudlet", Value: strconv.Itoa(j)}},
			Value:  util,
		})
	}
	return fam
}
