package graph

import (
	"context"
	"testing"

	"repro/internal/rng"
)

// TestCentralityCtxMatchesWorkers pins the ctx-first centralities under a
// live (never-cancelled) context to the serial background-context scores,
// for serial and parallel paths alike.
func TestCentralityCtxMatchesWorkers(t *testing.T) {
	g := ErdosRenyi(120, 0.05, rng.New(7))
	wantB, wantC := betweenness(g, 1), closeness(g, 1)
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, workers := range []int{1, 3} {
		bc, err := g.BetweennessCentralityCtx(live, workers)
		if err != nil {
			t.Fatalf("BetweennessCentralityCtx(workers=%d): %v", workers, err)
		}
		cc, err := g.ClosenessCentralityCtx(live, workers)
		if err != nil {
			t.Fatalf("ClosenessCentralityCtx(workers=%d): %v", workers, err)
		}
		for i := range wantB {
			if bc[i] != wantB[i] {
				t.Fatalf("workers=%d: betweenness[%d]=%v != serial %v", workers, i, bc[i], wantB[i])
			}
			if cc[i] != wantC[i] {
				t.Fatalf("workers=%d: closeness[%d]=%v != serial %v", workers, i, cc[i], wantC[i])
			}
		}
	}
}

// TestCentralityCtxCancelled checks both centralities stop and
// surface ctx.Err() instead of returning half-accumulated scores.
func TestCentralityCtxCancelled(t *testing.T) {
	g := ErdosRenyi(120, 0.05, rng.New(7))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		if got, err := g.BetweennessCentralityCtx(ctx, workers); err == nil {
			t.Errorf("workers=%d: BetweennessCentralityCtx on a cancelled context returned %d scores, want error",
				workers, len(got))
		}
		if got, err := g.ClosenessCentralityCtx(ctx, workers); err == nil {
			t.Errorf("workers=%d: ClosenessCentralityCtx on a cancelled context returned %d scores, want error",
				workers, len(got))
		}
	}
}
