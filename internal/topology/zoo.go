package topology

import (
	"fmt"
	"math/rand"
)

// The embedded topologies below stand in for the Internet Topology Zoo
// dataset the paper evaluates on [18]. Abilene and NSFNET are encoded from
// their well-known published layouts; the remaining entries are
// deterministic synthetic encodings whose node and edge counts match the
// corresponding Zoo graphs (the experiments only depend on the size and
// connectivity of the access network, not on exact link identities). Link
// latencies are deterministic per topology.

// Names of the embedded topologies, in the order returned by Names.
const (
	Abilene = "abilene"
	NSFNET  = "nsfnet"
	GEANT   = "geant"
	AARNet  = "aarnet"
	ATTNA   = "att-na"
)

// Names returns the embedded topology names in a stable order.
func Names() []string {
	return []string{Abilene, NSFNET, GEANT, AARNet, ATTNA}
}

// Load returns an embedded topology by name.
func Load(name string) (*Graph, error) {
	switch name {
	case Abilene:
		return buildFromEdges(Abilene, 11, abileneEdges())
	case NSFNET:
		return buildFromEdges(NSFNET, 14, nsfnetEdges())
	case GEANT:
		return buildSynthetic(GEANT, 23, 37, 101)
	case AARNet:
		return buildSynthetic(AARNet, 19, 24, 102)
	case ATTNA:
		return buildSynthetic(ATTNA, 25, 57, 103)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
}

// MustLoad is Load for embedded names known to exist; it panics on error
// and is intended for tests and examples.
func MustLoad(name string) *Graph {
	g, err := Load(name)
	if err != nil {
		panic(err)
	}
	return g
}

type rawEdge struct {
	u, v    int
	latency float64
}

// abileneEdges encodes the Internet2 Abilene backbone (11 PoPs, 14 links).
// Node order: Seattle, Sunnyvale, LosAngeles, Denver, KansasCity, Houston,
// Chicago, Indianapolis, Atlanta, WashingtonDC, NewYork.
func abileneEdges() []rawEdge {
	return []rawEdge{
		{0, 1, 9}, {0, 3, 13}, {1, 2, 5}, {1, 3, 12}, {2, 5, 16},
		{3, 4, 6}, {4, 5, 8}, {4, 7, 6}, {5, 8, 10}, {6, 7, 3},
		{6, 10, 9}, {7, 8, 6}, {8, 9, 7}, {9, 10, 3},
	}
}

// nsfnetEdges encodes the 14-node, 21-link NSFNET T1 backbone.
func nsfnetEdges() []rawEdge {
	return []rawEdge{
		{0, 1, 9}, {0, 2, 9}, {0, 3, 7}, {1, 2, 4}, {1, 7, 20},
		{2, 5, 15}, {3, 4, 5}, {3, 10, 18}, {4, 5, 9}, {4, 6, 7},
		{5, 9, 8}, {5, 13, 16}, {6, 7, 6}, {6, 9, 10}, {7, 8, 7},
		{8, 11, 4}, {8, 13, 3}, {9, 12, 8}, {10, 11, 7}, {10, 12, 9},
		{11, 13, 4},
	}
}

func buildFromEdges(name string, n int, edges []rawEdge) (*Graph, error) {
	g, err := NewGraph(name, n)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, e.latency); err != nil {
			return nil, fmt.Errorf("topology %q: %w", name, err)
		}
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topology %q: %w", name, ErrDisconnected)
	}
	return g, nil
}

// buildSynthetic produces a deterministic connected graph with exactly n
// nodes and m edges: a random spanning tree plus random chords, seeded so
// repeated loads are identical.
func buildSynthetic(name string, n, m int, seed int64) (*Graph, error) {
	if m < n-1 {
		return nil, fmt.Errorf("topology %q: %d edges cannot connect %d nodes", name, m, n)
	}
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		return nil, fmt.Errorf("topology %q: %d edges exceed simple-graph maximum %d", name, m, maxEdges)
	}
	rng := rand.New(rand.NewSource(seed))
	g, err := NewGraph(name, n)
	if err != nil {
		return nil, err
	}
	// Random spanning tree: attach each node to a random earlier node.
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		if err := g.AddEdge(u, v, 1+float64(rng.Intn(19))); err != nil {
			return nil, err
		}
	}
	for g.EdgeCount() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v, 1+float64(rng.Intn(19))); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// PlaceCloudletsByDegree returns the k best-connected nodes as cloudlet
// sites: cloudlets co-locate with the busiest access points.
func PlaceCloudletsByDegree(g *Graph, k int) ([]int, error) {
	if k < 1 || k > g.Nodes() {
		return nil, fmt.Errorf("%w: k=%d with %d nodes", ErrBadNode, k, g.Nodes())
	}
	return g.NodesByDegree()[:k], nil
}
