// Package oracle answers the paper's availability question by brute force,
// for tests to hold internal/core's closed forms to: every cloudlet, instance
// and pool peer is an independent coin, every outcome of all the coins is
// visited, and the probabilities of the outcomes that serve the request are
// added up. It imports nothing and uses no power, product form or occupancy
// identity, so it shares no bug with the code it checks. Exponential in the
// footprint: a dozen coins at most.
package oracle

// Site is a cloudlet that is up with probability Rc and hosts N instances.
type Site struct {
	Rc float64
	N  int
}

// Pool is a pooled backup instance in a cloudlet up with probability Rc. A
// request that lost its own instances claims it, as does each other member
// whose active path — up with probability Peers[i], one rate per peer — is
// down; a uniform draw among the claimants grants it.
type Pool struct {
	Rc    float64
	Peers []float64
}

// Availability returns the probability that the request is served: by one
// of its own instances — each up with probability rf — in an up cloudlet or,
// failing that and given a pool, by the pooled instance when it and its
// cloudlet are up and the draw favours the request.
func Availability(rf float64, sites []Site, pool *Pool) float64 {
	var p []float64 // P(coin i lands up)
	var host []int  // an instance's cloudlet coin; −1 for every other coin
	for _, s := range sites {
		c := len(p)
		p, host = append(p, s.Rc), append(host, -1)
		for i := 0; i < s.N; i++ {
			p, host = append(p, rf), append(host, c)
		}
	}
	backup := len(p) // the pool's cloudlet coin, its instance's, then the peers'
	if pool != nil {
		p, host = append(p, pool.Rc, rf), append(host, -1, -1)
		for _, rate := range pool.Peers {
			p, host = append(p, rate), append(host, -1)
		}
	}
	total := 0.0
	for outcome := 0; outcome < 1<<len(p); outcome++ {
		up := func(i int) bool { return outcome>>i&1 == 1 }
		prob, own, claimants := 1.0, false, 1
		for i := range p {
			if up(i) {
				prob *= p[i]
				own = own || host[i] >= 0 && up(host[i])
			} else {
				prob *= 1 - p[i]
				if i > backup+1 { // a peer whose active path is down
					claimants++
				}
			}
		}
		switch {
		case own:
			total += prob
		case pool != nil && up(backup) && up(backup+1):
			total += prob / float64(claimants)
		}
	}
	return total
}

// Peers returns n peer rates all equal to rate: a pool whose peers sit at
// one contention floor.
func Peers(rate float64, n int) []float64 {
	peers := make([]float64, n)
	for i := range peers {
		peers[i] = rate
	}
	return peers
}
