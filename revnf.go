// Package revnf is the public API of a reproduction of "Providing
// Reliability-Aware Virtualized Network Function Services for Mobile Edge
// Computing" (Li, Liang, Huang, Jia — IEEE ICDCS 2019).
//
// The library models a mobile-edge network of cloudlets serving online VNF
// requests with per-request reliability requirements, and provides:
//
//   - the paper's online primal-dual admission algorithms under the
//     on-site scheme (Algorithm 1, (1+a_max)-competitive with bounded
//     capacity violation) and off-site scheme (Algorithm 2);
//   - the greedy, first-fit, and random baselines of the evaluation;
//   - an offline comparator (ILP via from-scratch simplex plus branch and
//     bound, substituting for the paper's CPLEX runs);
//   - a simulation engine with capacity auditing and Monte-Carlo failure
//     injection;
//   - workload and topology generators mirroring the paper's environment;
//   - drivers that regenerate every figure of the paper's evaluation.
//
// Quick start:
//
//	inst, err := revnf.NewInstance(revnf.DefaultInstanceConfig(200), 1)
//	sched, err := revnf.NewScheduler(inst.Network, revnf.OnSite,
//		revnf.WithHorizon(inst.Horizon))
//	res, err := revnf.Run(inst, sched)
//	fmt.Println(res.Revenue, res.AdmissionRate())
//
// Decision tracing (why was a request admitted or priced out?):
//
//	store := revnf.NewTraceStore(1024)
//	sched, err := revnf.NewScheduler(inst.Network, revnf.OnSite,
//		revnf.WithHorizon(inst.Horizon), revnf.WithRecorder(store))
//	... run ...
//	dt, ok := store.Get(requestID) // candidates, dual costs, reason code
package revnf

import (
	"math/rand"

	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/mip"
	"revnf/internal/offline"
	"revnf/internal/onsite"
	"revnf/internal/simulate"
	"revnf/internal/workload"
)

// Core model types.
type (
	// VNF is one virtualized network function type.
	VNF = core.VNF
	// Cloudlet is one edge server cluster.
	Cloudlet = core.Cloudlet
	// Request is one user request ρ = (f, R, a, d, pay).
	Request = core.Request
	// Network bundles the VNF catalog and the cloudlet fleet.
	Network = core.Network
	// Placement is an admitted request's resource footprint.
	Placement = core.Placement
	// Assignment places instances of one request in one cloudlet.
	Assignment = core.Assignment
	// SharedBackup records a shared-scheme placement's membership in a
	// pooled backup group.
	SharedBackup = core.SharedBackup
	// Scheme selects on-site, off-site, or shared-backup redundancy.
	Scheme = core.Scheme
	// Scheduler is an online admission algorithm.
	Scheduler = core.Scheduler
	// CapacityView exposes residual capacity to schedulers.
	CapacityView = core.CapacityView
)

// Redundancy schemes. ParseScheme, Scheme.String, Scheme.Flag and
// AllSchemes round-trip these through their canonical spellings.
const (
	// OnSite places all instances of a request in one cloudlet.
	OnSite = core.OnSite
	// OffSite spreads instances across cloudlets, one per cloudlet.
	OffSite = core.OffSite
	// Shared places one primary instance and joins a pooled backup
	// instance shared by up to k requests, with correlated-failure
	// accounting; see WithSharedPoolSize.
	Shared = core.Shared
)

// ParseScheme resolves a scheme name in either its display ("on-site") or
// flag ("onsite") spelling. It is the one scheme-string parser in the
// tree: the revnfd -scheme flag, HTTP payloads and the wire protocol all
// route through it.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// AllSchemes lists the registered schemes in declaration order.
func AllSchemes() []Scheme { return core.AllSchemes() }

// Workload types.
type (
	// Instance is a complete simulation input: network, horizon, trace.
	Instance = workload.Instance
	// InstanceConfig assembles an instance from topology, cloudlet,
	// catalog and trace settings.
	InstanceConfig = workload.InstanceConfig
	// CloudletConfig configures random cloudlet fleets (K knob).
	CloudletConfig = workload.CloudletConfig
	// TraceConfig configures random request traces (H knob).
	TraceConfig = workload.TraceConfig
)

// Simulation types.
type (
	// SimResult is an audited simulation outcome.
	SimResult = simulate.Result[core.Placement]
	// Decision is one per-request admission record.
	Decision = simulate.Decision[core.Placement]
	// AvailabilityReport is a Monte-Carlo failure-injection summary.
	AvailabilityReport = simulate.AvailabilityReport
	// OfflineSolution is the offline comparator's schedule and bounds.
	OfflineSolution = offline.Solution
	// MIPConfig tunes the offline branch-and-bound search.
	MIPConfig = mip.Config
	// ExperimentSetup parameterizes the paper-figure drivers.
	ExperimentSetup = experiments.Setup
	// FigureResult is a regenerated evaluation figure.
	FigureResult = experiments.FigureResult
	// OnsiteAnalysis reports Theorem 1 / Lemma 8 quantities.
	OnsiteAnalysis = onsite.Analysis
)

// DefaultCatalog returns the paper's 10-type VNF catalog (reliability
// 0.9–0.9999, demand 1–3 computing units).
func DefaultCatalog() []VNF { return workload.DefaultCatalog() }

// DefaultInstanceConfig returns a ready-to-use configuration mirroring the
// paper's environment with the given request count.
func DefaultInstanceConfig(requests int) InstanceConfig {
	s := experiments.DefaultSetup()
	return InstanceConfig{
		TopologyName: s.Topology,
		Cloudlets: CloudletConfig{
			Count:          s.Cloudlets,
			MinCapacity:    s.CapMin,
			MaxCapacity:    s.CapMax,
			MaxReliability: s.RCMax,
			K:              s.K,
		},
		Trace: TraceConfig{
			Requests:       requests,
			Horizon:        s.Horizon,
			MinDuration:    s.MinDur,
			MaxDuration:    s.MaxDur,
			MinRequirement: s.ReqMin,
			MaxRequirement: s.ReqMax,
			MaxPaymentRate: s.PRMax,
			H:              s.H,
		},
	}
}

// NewInstance builds a reproducible instance from the configuration and
// seed.
func NewInstance(cfg InstanceConfig, seed int64) (*Instance, error) {
	return workload.NewInstance(cfg, seed)
}

// Run simulates the scheduler over the instance's trace with full
// capacity and reliability auditing. The raw Algorithm 1 (RawPrimalDual)
// is licensed to overcommit capacity: its overcommitment is recorded in
// the result rather than refused.
func Run(inst *Instance, sched Scheduler) (*SimResult, error) {
	return simulate.Run(inst, sched)
}

// SolveOffline computes the offline comparator schedule for the scheme.
// Under Shared, backup columns are amortized over the default pool size.
func SolveOffline(inst *Instance, scheme Scheme, cfg MIPConfig) (*OfflineSolution, error) {
	switch scheme {
	case OnSite:
		return offline.SolveOnsite(inst, cfg)
	case Shared:
		return offline.SolveShared(inst, core.DefaultSharedPoolSize, cfg)
	default:
		return offline.SolveOffsite(inst, cfg)
	}
}

// OfflineLPBound returns the LP-relaxation upper bound on offline revenue
// for the scheme.
func OfflineLPBound(inst *Instance, scheme Scheme) (float64, error) {
	switch scheme {
	case OnSite:
		return offline.LPBoundOnsite(inst)
	case Shared:
		return offline.LPBoundShared(inst, core.DefaultSharedPoolSize)
	default:
		return offline.LPBoundOffsite(inst)
	}
}

// EstimateAvailability Monte-Carlo-samples cloudlet and instance failures
// to verify that placements deliver their promised availability.
func EstimateAvailability(n *Network, trace []Request, placements []Placement, trials int, rng *rand.Rand) (*AvailabilityReport, error) {
	return simulate.EstimateAvailability(n, trace, placements, trials, rng)
}

// AnalyzeOnsite computes the competitive ratio (Theorem 1) and the
// violation bound ξ (Lemma 8) for a concrete instance.
func AnalyzeOnsite(n *Network, trace []Request) (*OnsiteAnalysis, error) {
	return onsite.Analyze(n, trace)
}

// DefaultExperimentSetup returns the laptop-scale mirror of the paper's
// evaluation environment used by the figure drivers.
func DefaultExperimentSetup() ExperimentSetup {
	return experiments.DefaultSetup()
}
