package graph

import "context"

// closeness is ClosenessCentralityCtx under a background context for tests
// with no context to thread. Background never cancels, so only a worker
// panic can surface as an error; it is re-raised.
func closeness(g *Graph, workers int) []float64 {
	c, err := g.ClosenessCentralityCtx(context.Background(), workers)
	if err != nil {
		panic(err)
	}
	return c
}

// betweenness is BetweennessCentralityCtx under a background context (see
// closeness).
func betweenness(g *Graph, workers int) []float64 {
	cb, err := g.BetweennessCentralityCtx(context.Background(), workers)
	if err != nil {
		panic(err)
	}
	return cb
}
