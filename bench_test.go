package repro

// The benchmark harness. BenchmarkScenario runs every registered scenario
// (experiment.All) once per iteration through experiment.Runner with its
// default params and seed and no cache, so
//
//	go test -run '^$' -bench '^BenchmarkScenario$' -benchmem .
//
// times each one as BenchmarkScenario/<ID>. It prints nothing: the tables
// are cmd/reportgen's output (REPORT.md), which is the byte contract.

import (
	"context"
	"testing"

	"repro/internal/experiment"
	_ "repro/internal/experiment/all"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

func BenchmarkScenario(b *testing.B) {
	ctx := context.Background()
	for _, sc := range experiment.All() {
		b.Run(sc.ID(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&experiment.Runner{}).RunOne(ctx, experiment.NewJob(sc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel engine benchmarks -------------------------------------------
//
// The Serial/Parallel pairs below measure the internal/parallel fan-out on
// the hot analysis paths. Results are bit-identical across worker counts
// (see internal/parallel's package doc), so the pairs differ only in time.

func benchGraph() *graph.Graph {
	return graph.BarabasiAlbert(600, 3, rng.New(1))
}

func BenchmarkBetweennessSerial(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BetweennessCentralityCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBetweennessParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BetweennessCentralityCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosenessSerial(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ClosenessCentralityCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosenessParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ClosenessCentralityCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBootstrapData() []float64 {
	r := rng.New(7)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.Pareto(1, 1.5)
	}
	return xs
}

func BenchmarkBootstrapCISerial(b *testing.B) {
	xs := benchBootstrapData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.New(42)
		_, _ = stats.BootstrapCI(xs, stats.Median, 2000, 0.95, r, 1)
	}
}

func BenchmarkBootstrapCIParallel(b *testing.B) {
	xs := benchBootstrapData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.New(42)
		_, _ = stats.BootstrapCI(xs, stats.Median, 2000, 0.95, r, 0)
	}
}
