// Command experiments regenerates the paper's evaluation figures and the
// ablation studies.
//
// Usage:
//
//	experiments -fig 1a                 # Figure 1(a): on-site revenue vs requests
//	experiments -fig 1b                 # Figure 1(b): off-site revenue vs requests
//	experiments -fig 2a                 # Figure 2(a): impact of H
//	experiments -fig 2b                 # Figure 2(b): impact of K
//	experiments -fig ablations          # all ablation sweeps
//	experiments -fig shared             # scheme comparison: shared-backup uplift vs onsite/offsite
//	experiments -fig all                # everything
//	experiments -fig 1a -csv            # CSV instead of an aligned table
//	experiments -fig 1a -requests 100,200,400 -seeds 5 -optimal bb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"revnf/internal/experiments"
	"revnf/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "figure to regenerate: 1a|1b|2a|2b|ablations|chains|theory|shared|all")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut   = fs.Bool("json", false, "shared figure only: emit one JSON row per scheme instead of a table")
		poolSize  = fs.Int("poolsize", 0, "shared figure: requests per pooled backup instance (0 = default)")
		topo      = fs.String("topology", "", "embedded topology name (default from setup)")
		cloudlets = fs.Int("cloudlets", 0, "cloudlet count (default from setup)")
		requests  = fs.String("requests", "50,100,150,200,250,300", "request counts for figures 1a/1b")
		load      = fs.Int("load", 0, "fixed request count for figures 2a/2b (default from setup)")
		hs        = fs.String("hs", "1,2,3,5,8,10", "H values for figure 2a")
		ks        = fs.String("ks", "1.00,1.02,1.04,1.06,1.08,1.10", "K values for figure 2b")
		seeds     = fs.Int("seeds", 3, "replications per point (seeds 1..N)")
		seedList  = fs.String("seedlist", "", "explicit comma-separated seeds (overrides -seeds)")
		horizon   = fs.Int("horizon", 0, "time horizon T (default from setup)")
		optimal   = fs.String("optimal", "lp", "offline comparator: none|lp|bb")
		optNodes  = fs.Int("optnodes", 200, "branch-and-bound node budget for -optimal bb")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *poolSize < 0 {
		return fmt.Errorf("-poolsize %d: want a positive pool size, or 0 for the default", *poolSize)
	}

	setup := experiments.DefaultSetup()
	if *topo != "" {
		setup.Topology = *topo
	}
	if *cloudlets > 0 {
		setup.Cloudlets = *cloudlets
	}
	if *load > 0 {
		setup.Requests = *load
	}
	if *horizon > 0 {
		setup.Horizon = *horizon
	}
	if *seeds > 0 {
		setup.Seeds = make([]int64, *seeds)
		for i := range setup.Seeds {
			setup.Seeds[i] = int64(i + 1)
		}
	}
	if *seedList != "" {
		explicit, err := parseInts(*seedList)
		if err != nil {
			return fmt.Errorf("-seedlist: %w", err)
		}
		setup.Seeds = make([]int64, len(explicit))
		for i, sd := range explicit {
			setup.Seeds[i] = int64(sd)
		}
	}
	switch *optimal {
	case "none":
		setup.Optimal = experiments.OptimalNone
	case "lp":
		setup.Optimal = experiments.OptimalLPBound
	case "bb":
		setup.Optimal = experiments.OptimalBB
	default:
		return fmt.Errorf("unknown -optimal %q", *optimal)
	}
	setup.OptNodes = *optNodes

	counts, err := parseInts(*requests)
	if err != nil {
		return fmt.Errorf("-requests: %w", err)
	}
	hVals, err := parseFloats(*hs)
	if err != nil {
		return fmt.Errorf("-hs: %w", err)
	}
	kVals, err := parseFloats(*ks)
	if err != nil {
		return fmt.Errorf("-ks: %w", err)
	}

	render := func(t *metrics.Table) error {
		if *csv {
			return t.RenderCSV(out)
		}
		if err := t.Render(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out)
		return err
	}

	jobs := map[string]func() error{
		"1a": func() error {
			f, err := setup.Fig1a(counts)
			if err != nil {
				return err
			}
			return render(f.Table)
		},
		"1b": func() error {
			f, err := setup.Fig1b(counts)
			if err != nil {
				return err
			}
			return render(f.Table)
		},
		"2a": func() error {
			f, err := setup.Fig2a(hVals)
			if err != nil {
				return err
			}
			return render(f.Table)
		},
		"2b": func() error {
			f, err := setup.Fig2b(kVals)
			if err != nil {
				return err
			}
			return render(f.Table)
		},
		"ablations": func() error {
			scaleTable, err := setup.AblationScale([]float64{1, 1.5, 2, 3, 4})
			if err != nil {
				return err
			}
			if err := render(scaleTable); err != nil {
				return err
			}
			dual, err := setup.AblationDualUpdate(counts)
			if err != nil {
				return err
			}
			if err := render(dual.Table); err != nil {
				return err
			}
			sortFig, err := setup.AblationSortKey(counts)
			if err != nil {
				return err
			}
			if err := render(sortFig.Table); err != nil {
				return err
			}
			budget, err := setup.AblationOptBudget([]int{1, 10, 100, 1000})
			if err != nil {
				return err
			}
			if err := render(budget); err != nil {
				return err
			}
			latency, err := setup.AblationLatencyPenalty([]float64{0, 0.5, 2, 10, 50})
			if err != nil {
				return err
			}
			return render(latency)
		},
		"chains": func() error {
			tbl, err := setup.ChainComparison(counts)
			if err != nil {
				return err
			}
			return render(tbl)
		},
		"shared": func() error {
			// The shared scheme is evaluated on the high-requirement regime
			// where pooling pays off; user overrides for topology, scale and
			// seeds carry over, the reliability band does not.
			us := experiments.SharedUpliftSetup()
			us.Topology = setup.Topology
			us.Cloudlets = setup.Cloudlets
			us.Horizon = setup.Horizon
			us.Seeds = setup.Seeds
			table, rows, err := us.SchemeComparison(setup.Requests, *poolSize)
			if err != nil {
				return err
			}
			if *jsonOut {
				for _, r := range rows {
					line, err := json.Marshal(struct {
						Name            string  `json:"name"`
						Scheme          string  `json:"scheme"`
						Requests        int     `json:"requests"`
						PoolSize        int     `json:"pool_size,omitempty"`
						AdmittedMean    float64 `json:"admitted_mean"`
						RevenueMean     float64 `json:"revenue_mean"`
						UpliftVsOffsite float64 `json:"uplift_vs_offsite"`
					}{
						Name:            "SchemeRevenue/scheme=" + r.Scheme,
						Scheme:          r.Scheme,
						Requests:        r.Requests,
						PoolSize:        r.PoolSize,
						AdmittedMean:    r.Admitted.Mean,
						RevenueMean:     r.Revenue.Mean,
						UpliftVsOffsite: r.UpliftVsOffsite,
					})
					if err != nil {
						return err
					}
					if _, err := fmt.Fprintln(out, string(line)); err != nil {
						return err
					}
				}
				return nil
			}
			return render(table)
		},
		"theory": func() error {
			violations, err := setup.ViolationStudy(counts)
			if err != nil {
				return err
			}
			if err := render(violations); err != nil {
				return err
			}
			throughput, err := setup.ThroughputTable(counts)
			if err != nil {
				return err
			}
			return render(throughput)
		},
	}

	switch *fig {
	case "all":
		for _, id := range []string{"1a", "1b", "2a", "2b", "ablations", "chains", "theory", "shared"} {
			if err := jobs[id](); err != nil {
				return fmt.Errorf("figure %s: %w", id, err)
			}
		}
		return nil
	default:
		job, ok := jobs[*fig]
		if !ok {
			return fmt.Errorf("unknown -fig %q (want 1a|1b|2a|2b|ablations|chains|theory|shared|all)", *fig)
		}
		if err := job(); err != nil {
			return fmt.Errorf("figure %s: %w", *fig, err)
		}
		return nil
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
