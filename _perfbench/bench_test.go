package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/serve"
)

func newTestRun(t *testing.T) *run {
	t.Helper()
	return &run{Workload: "test", Host: fingerprint(), dir: t.TempDir(), values: make(map[string]float64)}
}

// TestQuartilesMatchPython pins the quartiles to what Python's
// statistics.quantiles(xs, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.xs, s, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestTailNeedsTenSamplesBeyond: the tail percentile is the highest one
// with at least ten samples above it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{10000, 99.9, 9990, true},
		{1000, 99, 990, true},
		{999, 90, 900, true},
		{100, 90, 90, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		pct, v, ok := tail(mk(tc.n))
		if pct != tc.pct || v != tc.value || ok != tc.ok {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", tc.n, pct, v, ok, tc.pct, tc.value, tc.ok)
		}
	}
}

// TestSelfTimeSubtractsChildrenOnce: overlapping children are counted
// once and a child running past its parent is clipped.
func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}
	lt := selfTimes(spans)
	if got := lt["parent"].Self; got != 60 {
		t.Errorf("parent self time = %v, want 60", got)
	}
	if got := lt["child"]; got.Calls != 3 || got.Total != 70 || got.Self != 70 {
		t.Errorf("child = %+v, want 3 calls, total and self 70", got)
	}
}

// TestCorruptBodyIsCaught serves real responses through the daemon's
// handler, flips one byte of one body and checks that the serve workloads'
// body check counts exactly that request as failed and marks the run
// incorrect.
func TestCorruptBodyIsCaught(t *testing.T) {
	universe := []triple{{"E7", 7}, {"E10", 10}, {"E13", 13}}
	ref, _, err := references(context.Background(), universe, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.New(daemonConfig(nil)).Handler()
	var outs []outcome
	for i, tr := range universe {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/run?"+tr.query(), nil))
		body := rec.Body.Bytes()
		if i == 1 {
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 1
		}
		outs = append(outs, outcome{idx: i, sum: sha256.Sum256(body), ok: rec.Code == http.StatusOK})
	}

	r := newTestRun(t)
	lat := r.tally("check", outs, func(i int) triple { return universe[i] }, ref)
	if p := r.Phases[0]; p.Sent != 3 || p.Succeeded != 2 || p.Failed != 1 {
		t.Errorf("phase = %+v, want 3 sent, 2 succeeded, 1 failed", p)
	}
	if !math.IsInf(lat[1], 1) || math.IsInf(lat[0], 1) {
		t.Errorf("latencies %v: only the corrupted request should miss every limit", lat)
	}
	if len(r.Problems) != 1 {
		t.Errorf("problems = %q, want one", r.Problems)
	}
}

// TestCorruptSweepRowIsCaught: the sweep digest matches across worker
// counts and changes when one row does.
func TestCorruptSweepRowIsCaught(t *testing.T) {
	shape := bgpsim.HierarchyOpts{NMid: 24, NStub: 120, Hubs: 4, OriginEvery: 4}
	sweepAt := func(workers int) ([]bgpsim.LeakRow, []bgpsim.HijackRow) {
		leak, err := bgpsim.RunLeakSweepOpts(shape, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		hijack, err := bgpsim.RunHijackSweepOpts(shape, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		return leak, hijack
	}
	leak, hijack := sweepAt(1)
	want := sweepDigest(leak, hijack)
	if got := sweepDigest(sweepAt(2)); got != want {
		t.Fatal("sweep digest differs between workers = 1 and workers = 2")
	}
	leak[len(leak)/2].Affected++
	if sweepDigest(leak, hijack) == want {
		t.Error("a corrupted leak row was not caught")
	}
	leak[len(leak)/2].Affected--
	hijack[0].CapturedShare += 1e-12
	if sweepDigest(leak, hijack) == want {
		t.Error("a corrupted hijack row was not caught")
	}
}

// TestCorruptReplayCellIsCaught: two replays of the replay workload's
// world agree, and changing one series cell or one cascade event changes
// the digest.
func TestCorruptReplayCellIsCaught(t *testing.T) {
	ctx := context.Background()
	w, err := buildReplay(ctx, 5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayOnce := func() [sha256.Size]byte {
		comp, err := w.compose(5, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := comp.ReplayCtx(ctx, w.stream)
		if err != nil {
			t.Fatal(err)
		}
		w.routing.Unwind()
		return replayDigest(out)
	}
	want := replayOnce()
	if replayOnce() != want {
		t.Fatal("replaying after Unwind gave a different digest")
	}
	comp, err := w.compose(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := comp.ReplayCtx(ctx, w.stream)
	if err != nil {
		t.Fatal(err)
	}
	w.routing.Unwind()
	out.Series[1].Rows[len(out.Series[1].Rows)/2][2] += 0.5
	if replayDigest(out) == want {
		t.Error("a corrupted series cell was not caught")
	}
	out.Series[1].Rows[len(out.Series[1].Rows)/2][2] -= 0.5
	if replayDigest(out) != want {
		t.Fatal("restoring the cell did not restore the digest")
	}
	out.Injected[0].Value++
	if replayDigest(out) == want {
		t.Error("a corrupted cascade event was not caught")
	}
}

// TestServeWorkloadsTraced runs both serving workloads briefly in traced
// mode: every check passes, every per-layer metric is reported, and the
// cold fill executes each distinct triple exactly once.
func TestServeWorkloadsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback server for several seconds")
	}
	for _, name := range []string{"serve-hot", "serve-cold"} {
		r := newTestRun(t)
		r.Workload, r.Seed, r.Seconds, r.Trace, r.tr = name, 9, 1, true, newTracer()
		r.Load = loadShape{Conns: 2, Generators: 2}
		if err := workloads[name](context.Background(), r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range r.Problems {
			if raceEnabled && strings.HasPrefix(p, "open loop") {
				continue
			}
			t.Errorf("%s: %s", name, p)
		}
		for _, d := range perLayer {
			if _, ok := r.values[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", name, d.Name)
			}
		}
		if name == "serve-cold" && r.values["serve.exec_per_distinct"] != 1 {
			t.Errorf("serve-cold: %v executions per distinct triple, want exactly 1", r.values["serve.exec_per_distinct"])
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
}

// TestFinishPrintsTheContractLine: the last line carries exactly the
// end-to-end metrics, and a problem or a missing metric makes it incorrect.
func TestFinishPrintsTheContractLine(t *testing.T) {
	lastLine := func(r *run) map[string]any {
		t.Helper()
		var buf bytes.Buffer
		if err := r.finish(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var out map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	r := newTestRun(t)
	r.addPhase(phase{Name: "p", Sent: 4, Succeeded: 4})
	for i, d := range endToEnd {
		r.add(d.Name, d.Unit, float64(i+1), "")
	}
	out := lastLine(r)
	if out["correct"] != true || out["attempted"] != 4.0 || out["failed"] != 0.0 {
		t.Errorf("last line %v, want correct with 4 attempted and 0 failed", out)
	}
	if m := out["metrics"].(map[string]any); len(m) != len(endToEnd) {
		t.Errorf("metrics %v, want exactly %d", m, len(endToEnd))
	}

	r = newTestRun(t)
	r.addPhase(phase{Name: "p", Sent: 1, Succeeded: 1})
	r.add("setup_s", "s", 1, "")
	if out := lastLine(r); out["correct"] != false {
		t.Errorf("a run missing metrics printed correct = %v", out["correct"])
	}

	r = newTestRun(t)
	r.addPhase(phase{Name: "p", Sent: 2, Failed: 2})
	for _, d := range endToEnd {
		r.add(d.Name, d.Unit, 1, "")
	}
	r.addSamples("latency_ms", "ms", []float64{math.Inf(1), math.Inf(1)}, "")
	if out := lastLine(r); out["correct"] != false || out["failed"] != 2.0 {
		t.Errorf("a run whose latency every failure pushed to +Inf printed %v", out)
	}
}

// TestCompareRefusesDifferentHosts: results from two fingerprints are not
// compared.
func TestCompareRefusesDifferentHosts(t *testing.T) {
	write := func(dir string, h host) {
		r := run{Workload: "sweep", Host: h, Metrics: []metric{{Name: "setup_s", Unit: "s", Value: 1}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "r.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	h := fingerprint()
	write(a, h)
	write(b, h)
	var buf bytes.Buffer
	if err := compare(&buf, a, b); err != nil {
		t.Fatalf("same host: %v", err)
	}
	h.NumCPU++
	write(b, h)
	if err := compare(&buf, a, b); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("different hosts compared: err = %v", err)
	}
}

// TestOpenLoopKeepsSchedule: the pacer wakes within a millisecond of each
// due time on an idle process.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	var worst time.Duration
	for i := 0; i < 50; i++ {
		due := time.Now().Add(300 * time.Microsecond)
		sleepUntil(due)
		late := time.Since(due)
		if late < 0 {
			t.Fatalf("woke %v early", -late)
		}
		worst = max(worst, late)
	}
	if worst > 20*time.Millisecond {
		t.Errorf("worst lateness %v", worst)
	}
}
