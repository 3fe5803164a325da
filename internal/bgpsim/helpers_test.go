package bgpsim

import "context"

// mustConverge is ConvergeCtx under a background context for tests with no
// context to thread. Background never cancels, so only a worker panic can
// surface as an error; it is re-raised.
func mustConverge(topo *Topology, workers int) *RoutingTables {
	rt, err := topo.ConvergeCtx(context.Background(), workers)
	if err != nil {
		panic(err)
	}
	return rt
}

// mustConvergeState is ConvergeStateCtx under a background context (see
// mustConverge).
func mustConvergeState(topo *Topology, workers int) *Converged {
	c, err := topo.ConvergeStateCtx(context.Background(), workers)
	if err != nil {
		panic(err)
	}
	return c
}

// leakSweep runs RunLeakSweepCtx over the classic BuildHierarchy shape.
func leakSweep(nMid, nStub int, seed uint64, workers int) ([]LeakRow, error) {
	return RunLeakSweepCtx(context.Background(), HierarchyOpts{NMid: nMid, NStub: nStub}, seed, workers)
}

// hijackSweep runs RunHijackSweepCtx over the classic BuildHierarchy shape.
func hijackSweep(nMid, nStub int, seed uint64, workers int) ([]HijackRow, error) {
	return RunHijackSweepCtx(context.Background(), HierarchyOpts{NMid: nMid, NStub: nStub}, seed, workers)
}
