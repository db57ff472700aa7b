package revnf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestChainFacadeEndToEnd drives the SFC extension through the public API.
func TestChainFacadeEndToEnd(t *testing.T) {
	network := &Network{Catalog: DefaultCatalog()}
	for j := 0; j < 5; j++ {
		network.Cloudlets = append(network.Cloudlets, Cloudlet{
			ID: j, Node: j, Capacity: 12, Reliability: 0.985 + 0.003*float64(j),
		})
	}
	const horizon = 25
	cfg := ChainTraceConfig{
		Requests: 120, Horizon: horizon, MinLength: 1, MaxLength: 3,
		MinDuration: 1, MaxDuration: 6,
		MinRequirement: 0.85, MaxRequirement: 0.93,
		MaxPaymentRate: 10, H: 6,
	}
	trace, err := GenerateChainTrace(cfg, network.Catalog, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("GenerateChainTrace: %v", err)
	}
	inst := &ChainInstance{Network: network, Horizon: horizon, Trace: trace}
	for _, build := range []func() (ChainScheduler, error){
		func() (ChainScheduler, error) { return NewChainOnsiteScheduler(network, horizon) },
		func() (ChainScheduler, error) { return NewChainOffsiteScheduler(network, horizon) },
		func() (ChainScheduler, error) { return NewGreedyChainOnsite(network, horizon) },
		func() (ChainScheduler, error) { return NewGreedyChainOffsite(network, horizon) },
	} {
		sched, err := build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := RunChains(inst, sched)
		if err != nil {
			t.Fatalf("RunChains %s: %v", sched.Name(), err)
		}
		if res.Admitted == 0 {
			t.Errorf("%s admitted nothing", sched.Name())
		}
	}
	alloc, err := ChainOnsiteAllocation(network.Catalog, []int{0, 3}, 0.999, 0.95)
	if err != nil {
		t.Fatalf("ChainOnsiteAllocation: %v", err)
	}
	if len(alloc) != 2 || alloc[0] < 1 || alloc[1] < 1 {
		t.Errorf("allocation = %v", alloc)
	}
}

// TestQoSAndTimelineFacade drives the QoS and timeline analyses through
// the public API.
func TestQoSAndTimelineFacade(t *testing.T) {
	names := TopologyNames()
	if len(names) != 5 {
		t.Fatalf("TopologyNames = %v", names)
	}
	g, err := LoadTopology(names[0])
	if err != nil {
		t.Fatalf("LoadTopology: %v", err)
	}
	cfg := DefaultInstanceConfig(60)
	cfg.TopologyName = names[0]
	cfg.Cloudlets.Count = 5
	cfg.Trace.Horizon = 20
	cfg.Trace.MaxDuration = 5
	inst, err := NewInstance(cfg, 5)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	sched, err := NewScheduler(inst.Network, OffSite, WithHorizon(inst.Horizon))
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	res, err := Run(inst, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	qosRep, err := AssessQoS(inst.Network, g, inst.Trace, res.AdmittedPlacements())
	if err != nil {
		t.Fatalf("AssessQoS: %v", err)
	}
	if len(qosRep.PerPlacement) != res.Admitted {
		t.Errorf("QoS entries %d, want %d", len(qosRep.PerPlacement), res.Admitted)
	}
	tlRep, err := SimulateTimeline(inst.Network, inst.Horizon, inst.Trace, res.AdmittedPlacements(),
		TimelineConfig{CloudletMTTR: 3, InstanceMTTR: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("SimulateTimeline: %v", err)
	}
	if tlRep.MeanDelivered <= 0 || tlRep.MeanDelivered > 1 {
		t.Errorf("MeanDelivered = %v", tlRep.MeanDelivered)
	}
}

// TestIOFacade round-trips instances and CSV traces through the public
// API.
func TestIOFacade(t *testing.T) {
	cfg := DefaultInstanceConfig(25)
	cfg.Trace.Horizon = 15
	cfg.Trace.MaxDuration = 4
	inst, err := NewInstance(cfg, 6)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	var buf bytes.Buffer
	if err := inst.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadInstance(&buf)
	if err != nil {
		t.Fatalf("LoadInstance: %v", err)
	}
	if len(loaded.Trace) != len(inst.Trace) {
		t.Fatalf("trace length %d, want %d", len(loaded.Trace), len(inst.Trace))
	}
	var csvBuf strings.Builder
	if err := ExportTraceCSV(&csvBuf, inst.Network.Catalog, inst.Trace); err != nil {
		t.Fatalf("ExportTraceCSV: %v", err)
	}
	trace, err := ImportTraceCSV(strings.NewReader(csvBuf.String()), inst.Network.Catalog, inst.Horizon)
	if err != nil {
		t.Fatalf("ImportTraceCSV: %v", err)
	}
	for i := range trace {
		if trace[i] != inst.Trace[i] {
			t.Fatalf("request %d differs after CSV round trip", i)
		}
	}
}

// TestAnalyzeAndExperimentFacade exercises the remaining facade surface.
func TestAnalyzeAndExperimentFacade(t *testing.T) {
	cfg := DefaultInstanceConfig(30)
	cfg.Trace.Horizon = 15
	cfg.Trace.MaxDuration = 4
	inst, err := NewInstance(cfg, 8)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	analysis, err := AnalyzeOnsite(inst.Network, inst.Trace)
	if err != nil {
		t.Fatalf("AnalyzeOnsite: %v", err)
	}
	if analysis.CompetitiveRatio <= 1 {
		t.Errorf("CompetitiveRatio = %v", analysis.CompetitiveRatio)
	}
	setup := DefaultExperimentSetup()
	setup.Cloudlets = 4
	setup.Horizon = 15
	setup.MaxDur = 4
	setup.Seeds = []int64{1}
	setup.Optimal = 0 // exercise the invalid-mode path through Validate
	if err := setup.Validate(); err == nil {
		t.Error("invalid optimal mode accepted")
	}
}

func TestLoadTopologyJSONFacade(t *testing.T) {
	g, err := LoadTopology("abilene")
	if err != nil {
		t.Fatalf("LoadTopology: %v", err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadTopologyJSON(&buf)
	if err != nil {
		t.Fatalf("LoadTopologyJSON: %v", err)
	}
	if got.Nodes() != g.Nodes() || got.EdgeCount() != g.EdgeCount() {
		t.Errorf("round trip shape %d/%d vs %d/%d", got.Nodes(), got.EdgeCount(), g.Nodes(), g.EdgeCount())
	}
}
