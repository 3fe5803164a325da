package main

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/bgpsim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkConvergeSerial/as100-4         	     100	   1000000 ns/op	  500000 B/op	    1000 allocs/op
BenchmarkDeltaWithdraw/as10k-4          	    2000	     50000 ns/op
BenchmarkReplayFlapStorm-4              	     300	   2000000 ns/op	      5432 cells/event	     98765 events/sec	  250000 B/op	     800 allocs/op
PASS
ok  	repro/internal/bgpsim	2.000s
`

func TestParseBenchOutput(t *testing.T) {
	base, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(base.Benchmarks))
	}
	if base.CPU == "" {
		t.Error("cpu line not captured")
	}
	b := base.Benchmarks[0]
	// The -4 GOMAXPROCS suffix is stripped so baselines match across hosts.
	if b.Name != "BenchmarkConvergeSerial/as100" || b.NsPerOp != 1e6 {
		t.Errorf("first benchmark parsed as %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 500000 || b.AllocsPerOp == nil || *b.AllocsPerOp != 1000 {
		t.Errorf("memory stats parsed as %+v", b)
	}
	if m := base.Benchmarks[1]; m.BytesPerOp != nil || m.AllocsPerOp != nil {
		t.Errorf("benchmark without -benchmem grew memory stats: %+v", m)
	}
	if m := base.Benchmarks[1]; m.Name != "BenchmarkDeltaWithdraw/as10k" {
		t.Errorf("procs suffix not stripped: %q", m.Name)
	}
	// Custom ReportMetric units land between ns/op and B/op in go test output;
	// they must neither be dropped nor shadow the memory stats that follow.
	c := base.Benchmarks[2]
	if c.NsPerOp != 2e6 {
		t.Errorf("ns/op lost around custom metrics: %+v", c)
	}
	if c.Metrics["cells/event"] != 5432 || c.Metrics["events/sec"] != 98765 {
		t.Errorf("custom metrics parsed as %v", c.Metrics)
	}
	if c.BytesPerOp == nil || *c.BytesPerOp != 250000 || c.AllocsPerOp == nil || *c.AllocsPerOp != 800 {
		t.Errorf("memory stats after custom metrics parsed as %+v", c)
	}
}

func mkBaseline(ns map[string]float64) Baseline {
	var base Baseline
	for name, v := range ns {
		base.Benchmarks = append(base.Benchmarks, Benchmark{Name: name, Iterations: 1, NsPerOp: v})
	}
	return base
}

// TestComparePlantedRegression is the gate's own gate: a benchmark planted
// 30% slower must fail a 25% threshold and pass a 50% one.
func TestComparePlantedRegression(t *testing.T) {
	base := mkBaseline(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100})
	cur := mkBaseline(map[string]float64{"BenchmarkA": 130, "BenchmarkB": 90})

	report, regressed := compareBaselines(cur, base, 25)
	if !regressed {
		t.Fatalf("30%% regression not flagged at 25%% threshold; report:\n%s", strings.Join(report, "\n"))
	}
	found := false
	for _, line := range report {
		if strings.HasPrefix(line, "REGRESS") && strings.Contains(line, "BenchmarkA") {
			found = true
		}
		if strings.HasPrefix(line, "REGRESS") && strings.Contains(line, "BenchmarkB") {
			t.Errorf("improvement flagged as regression: %s", line)
		}
	}
	if !found {
		t.Errorf("no REGRESS line for BenchmarkA:\n%s", strings.Join(report, "\n"))
	}

	if _, regressed := compareBaselines(cur, base, 50); regressed {
		t.Error("30% regression flagged at 50% threshold")
	}
}

// TestCompareNewBenchmarkIsNotFatal: a benchmark with no baseline row yet is
// reported as new and does not fail the gate.
func TestCompareNewBenchmarkIsNotFatal(t *testing.T) {
	base := mkBaseline(map[string]float64{"BenchmarkShared": 100})
	cur := mkBaseline(map[string]float64{"BenchmarkNew": 9e9, "BenchmarkShared": 100})
	report, failed := compareBaselines(cur, base, 25)
	joined := strings.Join(report, "\n")
	if failed {
		t.Fatalf("gate failed on a new benchmark:\n%s", joined)
	}
	if !strings.Contains(joined, "new") || !strings.Contains(joined, "BenchmarkNew") {
		t.Errorf("report does not name the new benchmark:\n%s", joined)
	}
}

// TestCompareMissingBenchmarkFails: a baseline row absent from the run fails
// the gate, so renaming or deleting a benchmark cannot silently un-gate it.
func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := mkBaseline(map[string]float64{"BenchmarkOld": 100, "BenchmarkShared": 100})
	cur := mkBaseline(map[string]float64{"BenchmarkShared": 100})
	report, failed := compareBaselines(cur, base, 25)
	joined := strings.Join(report, "\n")
	if !failed {
		t.Fatalf("gate passed with a baseline row missing from the run:\n%s", joined)
	}
	if !strings.Contains(joined, "MISSING") || !strings.Contains(joined, "BenchmarkOld") {
		t.Errorf("report does not name the missing benchmark:\n%s", joined)
	}
}
