package core

import (
	"math"
	"math/rand"
	"testing"
)

func tableNetwork(t testing.TB, vnfs, cloudlets int, rng *rand.Rand) *Network {
	t.Helper()
	n := &Network{}
	for f := 0; f < vnfs; f++ {
		n.Catalog = append(n.Catalog, VNF{
			ID: f, Name: "f", Demand: 1 + rng.Intn(3),
			Reliability: 0.5 + 0.4999*rng.Float64(),
		})
	}
	for j := 0; j < cloudlets; j++ {
		n.Cloudlets = append(n.Cloudlets, Cloudlet{
			ID: j, Node: -1, Capacity: 10,
			Reliability: 0.5 + 0.4999*rng.Float64(),
		})
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReliabilityTableMatchesClosedForm fuzzes the cached lookups against
// the uncached function: the table must be bit-identical in the instance
// counts, and refuse what the closed form refuses.
func TestReliabilityTableMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := tableNetwork(t, 8, 12, rng)
	table, err := NewReliabilityTable(n)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5000; trial++ {
		f := rng.Intn(len(n.Catalog))
		j := rng.Intn(len(n.Cloudlets))
		req := 0.01 + 0.989*rng.Float64()
		rf := n.Catalog[f].Reliability
		rc := n.Cloudlets[j].Reliability

		want, wantErr := OnsiteInstances(rf, rc, req)
		if got, ok := table.OnsiteInstancesOK(f, j, req); ok != (wantErr == nil) || got != want {
			t.Fatalf("trial %d: OnsiteInstances(rf=%v, rc=%v, req=%v): table (%d, %v), closed form (%d, %v)",
				trial, rf, rc, req, got, ok, want, wantErr)
		}
	}
}

// TestReliabilityTableHighReliability exercises the near-saturation regime
// where the steps end and the closed form takes over.
func TestReliabilityTableHighReliability(t *testing.T) {
	n := &Network{
		Catalog:   []VNF{{ID: 0, Name: "f", Demand: 1, Reliability: 0.01}},
		Cloudlets: []Cloudlet{{ID: 0, Node: -1, Capacity: 10, Reliability: 0.999999}},
	}
	table, err := NewReliabilityTable(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []float64{0.3, 0.9, 0.99, 0.9999, 0.999998} {
		want, wantErr := OnsiteInstances(0.01, 0.999999, req)
		if got, ok := table.OnsiteInstancesOK(0, 0, req); ok != (wantErr == nil) || got != want {
			t.Fatalf("req %v: table (%d, %v), closed form (%d, %v)", req, got, ok, want, wantErr)
		}
	}
}

// benchReliabilityNetwork mirrors the paper's regime: highly reliable
// cloudlets (0.9+) serving requirements below them, so the feasible branch
// — the admission hot path — dominates.
func benchReliabilityNetwork(b *testing.B) (*Network, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	n := &Network{}
	for f := 0; f < 4; f++ {
		n.Catalog = append(n.Catalog, VNF{ID: f, Name: "f", Demand: 1, Reliability: 0.9 + 0.0999*rng.Float64()})
	}
	for j := 0; j < 8; j++ {
		n.Cloudlets = append(n.Cloudlets, Cloudlet{ID: j, Node: -1, Capacity: 10, Reliability: 0.9 + 0.0999*rng.Float64()})
	}
	reqs := make([]float64, 256)
	for i := range reqs {
		reqs[i] = 0.6 + 0.3*rng.Float64()
	}
	return n, reqs
}

// BenchmarkOnsiteInstancesClosedForm is the uncached hot-path cost: two
// logarithm calls plus a verification pow per admission candidate, and an
// error allocation for every infeasible pair.
func BenchmarkOnsiteInstancesClosedForm(b *testing.B) {
	n, reqs := benchReliabilityNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % len(n.Catalog)
		j := i % len(n.Cloudlets)
		_, _ = OnsiteInstances(n.Catalog[f].Reliability, n.Cloudlets[j].Reliability, reqs[i%len(reqs)])
	}
}

// BenchmarkOnsiteInstancesTable is the cached equivalent; the win is the
// point of the per-(VNF, cloudlet) precomputation.
func BenchmarkOnsiteInstancesTable(b *testing.B) {
	n, reqs := benchReliabilityNetwork(b)
	table, err := NewReliabilityTable(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = table.OnsiteInstancesOK(i%len(n.Catalog), i%len(n.Cloudlets), reqs[i%len(reqs)])
	}
}

// ulps moves x by n float64 steps (n may be negative).
func ulps(x float64, n int) float64 {
	to := math.Inf(1)
	if n < 0 {
		to, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, to)
	}
	return x
}

// checkOnsiteSteps compares the step lookup with OnsiteInstances for one
// pair, at every requirement where the two could part: around each stored
// step, around each rung rc·(1-(1-rf)^n) and its tolerance edge, up against
// rc, outside (0, 1), and at random requirements.
func checkOnsiteSteps(t *testing.T, table *ReliabilityTable, f, j, randoms int, rng *rand.Rand) {
	t.Helper()
	rf, rc := table.rfs[f], table.rcs[j]
	check := func(req float64) {
		t.Helper()
		want, err := OnsiteInstances(rf, rc, req)
		got, ok := table.OnsiteInstancesOK(f, j, req)
		if got != want || ok != (err == nil) {
			t.Fatalf("rf=%v rc=%v req=%v (%#x): steps (%d, %v), closed form (%d, %v)",
				rf, rc, req, math.Float64bits(req), got, ok, want, err)
		}
	}
	steps := table.steps[f*len(table.rcs)+j]
	for i, s := range steps {
		if i > 0 && s < steps[i-1] {
			t.Fatalf("rf=%v rc=%v: steps not ascending at %d: %v", rf, rc, i, steps)
		}
		for d := -4; d <= 4; d++ {
			check(ulps(s, d))
		}
	}
	for n := 1; n <= len(steps); n++ {
		rung := OnsiteReliability(rf, rc, n)
		for _, k := range []float64{0.5, 1, 2} {
			for _, at := range []float64{rung, rung + relEpsilon} {
				check(at - k*relEpsilon)
				check(at + k*relEpsilon)
			}
		}
	}
	for d := -8; d <= 2; d++ {
		check(ulps(rc, d))
	}
	for _, req := range []float64{0, -0.5, 1, 1.5, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64} {
		check(req)
	}
	for i := 0; i < randoms; i++ {
		check(rng.Float64())
		// The paper's regime, and where the steps crowd: just under rc.
		check(rc * (1 - math.Pow(10, -16*rng.Float64())))
	}
}

// TestOnsiteStepsMatchClosedForm pins the step tables to OnsiteInstances,
// the per-request computation they stand for and the path past the last
// step. The closed form is monotone in the requirement exactly when this
// passes at the steps.
func TestOnsiteStepsMatchClosedForm(t *testing.T) {
	randoms := 5000 // ×2 probes each
	if testing.Short() {
		randoms = 500
	}
	rng := rand.New(rand.NewSource(16))
	// workload.DefaultCatalog's reliabilities (that package imports this one).
	paper := &Network{}
	for f, rf := range []float64{0.9, 0.93, 0.95, 0.97, 0.98, 0.99, 0.995, 0.999, 0.9995, 0.9999} {
		paper.Catalog = append(paper.Catalog, VNF{ID: f, Name: "f", Demand: 1, Reliability: rf})
	}
	for j := 0; j < 8; j++ {
		paper.Cloudlets = append(paper.Cloudlets, Cloudlet{ID: j, Node: -1, Capacity: 10,
			Reliability: 0.9 + 0.0999*rng.Float64()})
	}
	random := &Network{}
	for f := 0; f < 12; f++ {
		random.Catalog = append(random.Catalog, VNF{ID: f, Name: "f", Demand: 1,
			Reliability: 0.5 + 0.4999*rng.Float64()})
	}
	for j := 0; j < 16; j++ {
		random.Cloudlets = append(random.Cloudlets, Cloudlet{ID: j, Node: -1, Capacity: 10,
			Reliability: 0.9 + 0.0999*rng.Float64()})
	}
	// TestReliabilityTableHighReliability's pair: the steps end at
	// maxThresholds and the closed form answers past the last step.
	truncated := &Network{
		Catalog:   []VNF{{ID: 0, Name: "f", Demand: 1, Reliability: 0.01}},
		Cloudlets: []Cloudlet{{ID: 0, Node: -1, Capacity: 10, Reliability: 0.999999}},
	}
	for _, n := range []*Network{paper, random, truncated} {
		table, err := NewReliabilityTable(n)
		if err != nil {
			t.Fatal(err)
		}
		for f := range n.Catalog {
			for j := range n.Cloudlets {
				checkOnsiteSteps(t, table, f, j, randoms, rng)
			}
		}
	}
	table, err := NewReliabilityTable(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if steps := table.steps[0]; len(steps) != maxThresholds || steps[len(steps)-1] >= 0.9 {
		t.Fatalf("truncated pair: %d steps ending at %v, want %d ending below the closed form's range",
			len(steps), steps[len(steps)-1], maxThresholds)
	}
}

// FuzzOnsiteInstancesOK checks the same equivalence on arbitrary single-pair
// networks.
func FuzzOnsiteInstancesOK(f *testing.F) {
	f.Add(0.9, 0.99, 0.95)
	f.Add(0.01, 0.999999, 0.9999)
	f.Add(0.9999, 0.9, 0.8999999999999)
	f.Add(0.5, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, rf, rc, req float64) {
		if rf < 1e-6 {
			// 1-rf has lost the digits of rf: the closed form starts far
			// from N and its verify loop walks for minutes.
			t.Skip()
		}
		n := &Network{
			Catalog:   []VNF{{ID: 0, Name: "f", Demand: 1, Reliability: rf}},
			Cloudlets: []Cloudlet{{ID: 0, Node: -1, Capacity: 10, Reliability: rc}},
		}
		table, err := NewReliabilityTable(n)
		if err != nil {
			t.Skip() // rf or rc is not a probability
		}
		want, err := OnsiteInstances(rf, rc, req)
		if got, ok := table.OnsiteInstancesOK(0, 0, req); got != want || ok != (err == nil) {
			t.Fatalf("rf=%v rc=%v req=%v: steps (%d, %v), closed form (%d, %v)", rf, rc, req, got, ok, want, err)
		}
	})
}

// BenchmarkReliabilityTableBuild is the construction cost the step tables
// add to every scheduler's set-up.
func BenchmarkReliabilityTableBuild(b *testing.B) {
	n, _ := benchReliabilityNetwork(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewReliabilityTable(n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSharedPairsMatchSharedFeasible compares the pair table with the
// shared scheme's admission rule it tabulates — a backup off the primary's
// cloudlet, a requirement that is a probability, and SharedReliabilityK at
// the contention floor meeting it — at the requirements where they could
// part: around every availability and its tolerance edge, and outside
// (0, 1).
func TestSharedPairsMatchSharedFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := tableNetwork(t, 4, 9, rng)
	for _, k := range []int{1, 2, 4, 16, 17} {
		pairs := NewSharedPairs(n, k)
		for f, v := range n.Catalog {
			floor := SharedContentionFloor(v.Reliability, n.Cloudlets)
			for a, ca := range n.Cloudlets {
				for b, cb := range n.Cloudlets {
					avail := SharedReliabilityK(v.Reliability, ca.Reliability, cb.Reliability, floor, k)
					reqs := []float64{0, -1, 1, 2, math.NaN(), 1e-300, 0.5, math.Nextafter(1, 0)}
					for _, at := range []float64{avail, avail + relEpsilon, avail - relEpsilon} {
						for d := -2; d <= 2; d++ {
							reqs = append(reqs, ulps(at, d))
						}
					}
					for _, req := range reqs {
						row := pairs.Row(f, a, req)
						got := row != nil && row[b] >= req
						want := a != b && validProbability(req) && MeetsRequirement(avail, req)
						if got != want {
							t.Fatalf("k=%d vnf=%d a=%d b=%d req=%v: table %v, closed form %v", k, f, a, b, req, got, want)
						}
					}
				}
			}
		}
	}
}
