package offline

import (
	"reflect"
	"testing"

	"revnf/internal/mip"
)

// TestSolveIsDeterministic repeats each solve under a node budget: the
// search stops part way, so any run-to-run change in the order of its
// relaxations shows in the incumbent, the bound or the node count.
// reflect.DeepEqual compares the floats with ==, which on values that
// are not NaN means bit for bit.
func TestSolveIsDeterministic(t *testing.T) {
	const runs = 8
	cfg := mip.Config{MaxNodes: 60}
	for seed := int64(1); seed <= 2; seed++ {
		inst := tinyInstance(t, seed, 10)
		chainInst := tinyChainInstance(t, seed, 8)
		solvers := []struct {
			name  string
			solve func() (any, error)
		}{
			{"on-site", func() (any, error) { return SolveOnsite(inst, cfg) }},
			{"off-site", func() (any, error) { return SolveOffsite(inst, cfg) }},
			{"shared", func() (any, error) { return SolveShared(inst, 2, cfg) }},
			{"chain", func() (any, error) { return SolveChainOnsite(chainInst, cfg) }},
		}
		for _, s := range solvers {
			first, err := s.solve()
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, s.name, err)
			}
			for run := 1; run < runs; run++ {
				again, err := s.solve()
				if err != nil {
					t.Fatalf("seed %d: %s run %d: %v", seed, s.name, run, err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Errorf("seed %d: %s run %d differs from run 0:\n%+v\n%+v", seed, s.name, run, again, first)
					break
				}
			}
		}
	}
}
