package chain

import "testing"

// Instance helpers for run_test.go, the external tests that drive the
// chain schedulers through simulate.RunChains: simulate imports this
// package, so those tests cannot live inside it.
var (
	SmallNetwork     = testNetwork
	SmallTraceConfig = chainTraceConfig
)

// SmallInstance is the 80-chain instance of seed 1 on SmallNetwork.
func SmallInstance(t *testing.T) *Instance { return chainInstance(t) }
