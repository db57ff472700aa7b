// Command vnfsim runs one online simulation and prints the audited
// result: revenue, admission rate, utilization, capacity violations, and
// (optionally) a Monte-Carlo availability check of every admitted
// placement.
//
// Usage:
//
//	vnfsim -algorithm pd -scheme onsite -requests 300 -seed 1
//	vnfsim -algorithm greedy -scheme offsite -topology geant -cloudlets 10
//	vnfsim -algorithm raw -scheme onsite -requests 500     # theory-faithful Algorithm 1
//	vnfsim -instance trace.json -algorithm pd -scheme onsite
//	vnfsim -algorithm pd -scheme onsite -failure-trials 10000
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"revnf"
	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/onsite"
	"revnf/internal/qos"
	"revnf/internal/simulate"
	"revnf/internal/topology"
	"revnf/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vnfsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vnfsim", flag.ContinueOnError)
	var (
		algorithm = fs.String("algorithm", "pd", "scheduler: pd|raw|greedy|firstfit|random")
		scheme    = fs.String("scheme", "onsite", "redundancy scheme: onsite|offsite|shared")
		poolSize  = fs.Int("pool-size", 0, "shared scheme: requests per pooled backup instance (0 = default)")
		topo      = fs.String("topology", "", "embedded topology name")
		cloudlets = fs.Int("cloudlets", 0, "cloudlet count")
		requests  = fs.Int("requests", 300, "request count")
		horizon   = fs.Int("horizon", 0, "time horizon T")
		seed      = fs.Int64("seed", 1, "workload seed")
		instance  = fs.String("instance", "", "load instance JSON instead of generating")
		trials    = fs.Int("failure-trials", 0, "Monte-Carlo availability trials (0 = skip)")
		mttr      = fs.Float64("timeline-mttr", 0, "cloudlet MTTR in slots for a failure-timeline run (0 = skip)")
		showQoS   = fs.Bool("qos", false, "report recovery latency and sync traffic on the topology")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sch, err := core.ParseScheme(*scheme)
	if err != nil {
		return fmt.Errorf("-scheme: %w", err)
	}

	inst, err := loadOrGenerate(*instance, *topo, *cloudlets, *requests, *horizon, *seed)
	if err != nil {
		return err
	}

	sched, err := buildScheduler(*algorithm, sch, *poolSize, inst, *seed)
	if err != nil {
		return err
	}

	res, err := simulate.Run(inst, sched)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "algorithm:        %s (%s)\n", res.Algorithm, res.Scheme)
	fmt.Fprintf(out, "requests:         %d\n", len(inst.Trace))
	fmt.Fprintf(out, "admitted:         %d (%.1f%%)\n", res.Admitted, 100*res.AdmissionRate())
	fmt.Fprintf(out, "revenue:          %.2f\n", res.Revenue)
	fmt.Fprintf(out, "mean utilization: %.1f%%\n", 100*res.Utilization)
	fmt.Fprintf(out, "violated cells:   %d (max ratio %.2f)\n", len(res.Violations), res.MaxViolationRatio)

	if sch == core.OnSite {
		if analysis, err := onsite.Analyze(inst.Network, inst.Trace); err == nil {
			fmt.Fprintf(out, "competitive ratio (Theorem 1): %.1f\n", analysis.CompetitiveRatio)
			fmt.Fprintf(out, "violation bound ξ (Lemma 8):   %.1f units (%.2fx cap_min)\n",
				analysis.ViolationBound, analysis.ViolationRatio)
		}
	}

	if *trials > 0 {
		report, err := simulate.EstimateAvailability(
			inst.Network, inst.Trace, res.AdmittedPlacements(), *trials,
			rand.New(rand.NewSource(*seed+1)))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "failure injection: %d trials/request, %.1f%% of placements met their requirement\n",
			report.Trials, 100*report.MetFraction)
	}

	if *showQoS {
		name := *topo
		if name == "" {
			name = experiments.DefaultSetup().Topology
		}
		g, err := topology.Load(name)
		if err != nil {
			return err
		}
		rep, err := qos.Assess(inst.Network, g, inst.Trace, res.AdmittedPlacements())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "qos on %s: mean recovery latency %.2f, max %.2f, total sync traffic %.1f\n",
			name, rep.MeanRecoveryLatency, rep.MaxRecoveryLatency, rep.TotalSyncTraffic)
	}

	if *mttr > 0 {
		cfg := simulate.TimelineConfig{CloudletMTTR: *mttr, InstanceMTTR: 1}
		rep, err := simulate.SimulateTimeline(
			inst.Network, inst.Horizon, inst.Trace, res.AdmittedPlacements(), cfg,
			rand.New(rand.NewSource(*seed+2)))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "failure timeline (cloudlet MTTR %.0f slots): mean delivered uptime %.3f, %.1f%% of requests with zero downtime\n",
			*mttr, rep.MeanDelivered, 100*rep.FullServiceFraction)
	}
	return nil
}

// loadOrGenerate loads -instance or generates one from the generator flags.
var loadOrGenerate = experiments.LoadOrGenerate

// buildScheduler maps the flags onto the public functional-options
// constructor; the scheme arrives already parsed by core.ParseScheme.
func buildScheduler(algorithm string, scheme core.Scheme, poolSize int, inst *workload.Instance, seed int64) (core.Scheduler, error) {
	alg := revnf.Algorithm(algorithm)
	if !alg.Valid() {
		return nil, fmt.Errorf("unknown -algorithm %q (want pd|raw|greedy|firstfit|random)", algorithm)
	}
	if poolSize < 0 {
		return nil, fmt.Errorf("-pool-size %d: want a positive pool size, or 0 for the default", poolSize)
	}
	opts := []revnf.SchedulerOption{
		revnf.WithAlgorithm(alg),
		revnf.WithHorizon(inst.Horizon),
		revnf.WithRNG(rand.New(rand.NewSource(seed))),
		revnf.WithSharedPoolSize(poolSize), // 0 keeps the default
	}
	return revnf.NewScheduler(inst.Network, scheme, opts...)
}
