package main

// Benchmark-output parsing and baseline comparison, separated from main so
// the regression gate has unit tests (the gate guards the perf work; a gate
// that silently passes everything would be worse than none).

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one measured benchmark result. Metrics carries any custom
// per-op units a benchmark reported via b.ReportMetric (e.g. "events/sec",
// "cells/event"), keyed by unit; the three standard units stay first-class.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"b_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file layout of BENCH_bgpsim.json.
type Baseline struct {
	Schema     string      `json:"schema"`
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var (
	cpuLine = regexp.MustCompile(`^cpu: (.+)$`)
	// go test suffixes benchmark names with "-<GOMAXPROCS>" on multi-core
	// machines and omits it on single-core ones. Strip it so a baseline
	// recorded on one machine still matches a gate run on another; no
	// benchmark here names its own sub-benchmarks "-<digits>".
	procsSuffix = regexp.MustCompile(`-\d+$`)
)

// parseBenchLine parses one result line as (name, iterations, value-unit
// pairs). Benchmarks that call b.ReportMetric emit their custom units between
// ns/op and B/op, so positional parsing must walk the pairs rather than
// anchor on ns/op coming last — a regex anchored that way silently drops
// B/op and allocs/op the moment a benchmark reports a custom metric.
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // e.g. a "BenchmarkX ... FAIL" status line
	}
	bench := Benchmark{Name: procsSuffix.ReplaceAllString(fields[0], ""), Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		value, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			bench.NsPerOp, err = strconv.ParseFloat(value, 64)
			seenNs = true
		case "B/op":
			var v int64
			if v, err = strconv.ParseInt(value, 10, 64); err == nil {
				bench.BytesPerOp = &v
			}
		case "allocs/op":
			var v int64
			if v, err = strconv.ParseInt(value, 10, 64); err == nil {
				bench.AllocsPerOp = &v
			}
		default:
			var v float64
			if v, err = strconv.ParseFloat(value, 64); err == nil {
				if bench.Metrics == nil {
					bench.Metrics = make(map[string]float64)
				}
				bench.Metrics[unit] = v
			}
		}
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad %s value in %q: %v", unit, line, err)
		}
	}
	if !seenNs {
		return Benchmark{}, false, nil
	}
	return bench, true, nil
}

// parseBenchOutput reads `go test -bench` text and collects the results.
func parseBenchOutput(r io.Reader) (Baseline, error) {
	base := Baseline{
		Schema:     "bench-v1",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			base.CPU = m[1]
			continue
		}
		bench, ok, err := parseBenchLine(line)
		if err != nil {
			return base, err
		}
		if ok {
			base.Benchmarks = append(base.Benchmarks, bench)
		}
	}
	if err := sc.Err(); err != nil {
		return base, err
	}
	return base, nil
}

// compareBaselines checks cur against base benchmark-by-benchmark on ns/op.
// It returns a human-readable report (one line per benchmark) and whether the
// gate fails: a matched benchmark regressed beyond maxRegressPct, or a
// baseline benchmark is missing from cur. A benchmark only in cur is reported
// but not fatal, since it has no baseline yet; a missing one would otherwise
// drop out of the gate unnoticed, so retiring a row means deleting it from the
// baseline.
func compareBaselines(cur, base Baseline, maxRegressPct float64) (report []string, failed bool) {
	baseByName := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}
	matched := make(map[string]bool, len(cur.Benchmarks))
	for _, c := range cur.Benchmarks {
		b, ok := baseByName[c.Name]
		if !ok {
			report = append(report, fmt.Sprintf("new      %-50s %12.0f ns/op (no baseline)", c.Name, c.NsPerOp))
			continue
		}
		matched[c.Name] = true
		if b.NsPerOp <= 0 {
			report = append(report, fmt.Sprintf("skip     %-50s baseline ns/op is %g", c.Name, b.NsPerOp))
			continue
		}
		deltaPct := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		verdict := "ok"
		if deltaPct > maxRegressPct {
			verdict = "REGRESS"
			failed = true
		}
		report = append(report, fmt.Sprintf("%-8s %-50s %12.0f -> %12.0f ns/op (%+.1f%%)",
			verdict, c.Name, b.NsPerOp, c.NsPerOp, deltaPct))
	}
	for _, b := range base.Benchmarks {
		if !matched[b.Name] {
			report = append(report, fmt.Sprintf("MISSING  %-50s in baseline only", b.Name))
			failed = true
		}
	}
	return report, failed
}
