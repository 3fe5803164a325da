package bgpsim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// TestSweepCtxMatchesWorkers pins the ctx-first sweeps across worker
// counts: under a live (never-cancelled) context, RunLeakSweepCtx and
// RunHijackSweepCtx return exactly the rows of the serial background run.
func TestSweepCtxMatchesWorkers(t *testing.T) {
	o := HierarchyOpts{NMid: 8, NStub: 20}
	wantLeak, err := leakSweep(o.NMid, o.NStub, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantHijack, err := hijackSweep(o.NMid, o.NStub, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 3} {
		gotLeak, err := RunLeakSweepCtx(ctx, o, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotLeak, wantLeak) {
			t.Errorf("workers=%d: leak rows differ from the serial run", workers)
		}
		gotHijack, err := RunHijackSweepCtx(ctx, o, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotHijack, wantHijack) {
			t.Errorf("workers=%d: hijack rows differ from the serial run", workers)
		}
	}
}

// TestSweepCtxCancelled checks the sweeps stop between events and surface
// ctx.Err() rather than returning partial rows.
func TestSweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rows, err := RunLeakSweepCtx(ctx, HierarchyOpts{NMid: 8, NStub: 20}, 5, 1); err == nil {
		t.Errorf("RunLeakSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	if rows, err := RunHijackSweepCtx(ctx, HierarchyOpts{NMid: 8, NStub: 20}, 5, 1); err == nil {
		t.Errorf("RunHijackSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
}

// TestConvergeCtxMatchesWorkers pins Topology.ConvergeCtx under a live
// (never-cancelled) context to the serial background-context tables, at one
// and at several workers. assertEngineMatchesReference ties those to the
// reference oracle.
func TestConvergeCtxMatchesWorkers(t *testing.T) {
	h, err := BuildHierarchy(rng.New(9), 6, 15)
	if err != nil {
		t.Fatal(err)
	}
	want := mustConverge(h.Topo, 1)
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, workers := range []int{1, 3} {
		got, err := h.Topo.ConvergeCtx(live, workers)
		if err != nil {
			t.Fatalf("ConvergeCtx(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ConvergeCtx(workers=%d) tables differ from the serial run", workers)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Topo.ConvergeCtx(ctx, 1); err == nil {
		t.Error("ConvergeCtx on a cancelled context returned tables, want error")
	}
}
