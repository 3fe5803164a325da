// Command perfbench is humnet's end-to-end benchmark. It drives the public
// entry points of the serving daemon (internal/serve), the experiment
// runner and cache (internal/experiment), the scenario packages, the BGP
// engine (internal/bgpsim) and the composed timeline (internal/timeline)
// from one process, checks every output against a reference computed
// without timing, and prints the metrics catalogued in README.md.
//
//	perfbench -workload serve-hot -seed 1 -seconds 10 -trace 0
//	perfbench compare <results-dir-a> <results-dir-b>
//
// With -trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with -trace 1 the run is repeated with spans
// recorded around every layer call and the object carries the per-layer
// metrics instead. Every run also writes a result file, with the host
// fingerprint and per-metric sample summaries, under -out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// endToEnd and perLayer are the metrics the final JSON line carries, in
// the order BENCHMARK.json lists them; names and units must match it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"gc.cycles", "count"},
	{"gc.cpu_share", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"trace.overhead_share", "ratio"},
	{"serve.lru_hit_ratio", "ratio"},
	{"serve.disk_hit_ratio", "ratio"},
	{"serve.exec_ratio", "ratio"},
	{"serve.exec_per_distinct", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "B"},
	{"bgpsim.sweep_rows", "count"},
	{"bgpsim.cells_per_delta", "count"},
	{"timeline.cascade_injected", "count"},
	{"timeline.cascade_dropped", "count"},
}

type metricDef struct{ Name, Unit string }

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"serve-hot":  serveHot,
	"serve-cold": serveCold,
	"sweep":      sweep,
	"replay":     replay,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-hot, serve-cold, sweep or replay")
	seed := fs.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := fs.Int("seconds", 10, "length of the measured span")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-results", "directory for result files, span dumps and scratch caches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			return errors.New("usage: perfbench compare <results-dir-a> <results-dir-b>")
		}
		return compare(stdout, fs.Arg(1), fs.Arg(2))
	}
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want serve-hot, serve-cold, sweep or replay)", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	r := &run{
		Workload: *name,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		Host:     fingerprint(),
		Load:     loadShape{Conns: min(2, runtime.NumCPU())},
		dir:      *out,
		values:   make(map[string]float64),
	}
	r.Load.Generators = r.Load.Conns
	if r.Trace {
		r.tr = newTracer()
	}
	steal0, total0 := cpuSteal()
	if err := drive(context.Background(), r); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	r.StealShare = -1
	if steal1, total1 := cpuSteal(); total1 > total0 {
		r.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(*out, r.fileStem()+".spans.jsonl")); err != nil {
			return err
		}
	}
	return r.finish(stdout)
}

// run is one benchmark invocation and its result file.
type run struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     host      `json:"host"`
	Load     loadShape `json:"load"`
	Phases   []phase   `json:"phases"`
	Metrics  []metric  `json:"metrics"`
	Problems []string  `json:"problems"`
	// StealShare is the share of the host's CPU time the hypervisor gave to
	// other guests while the run went on (-1 where /proc/stat is not
	// readable). It changes no figure; it explains a slow run on a shared
	// host, where it reaches a fifth or more for minutes at a time.
	StealShare float64 `json:"steal_share"`

	dir    string
	tr     *tracer
	values map[string]float64
}

// host is the fingerprint every result carries; results from different
// fingerprints are not compared.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
}

// loadShape records how much concurrency the run drove: client connections
// and goroutines issuing load, both at most nproc.
type loadShape struct {
	Conns      int     `json:"connections"`
	Generators int     `json:"generators"`
	OpenRate   float64 `json:"open_loop_rate,omitempty"`
}

// phase is the failure accounting of one measured phase.
type phase struct {
	Name      string `json:"name"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// metric is one reported figure, with the distribution of the samples it
// was taken from when there are several.
type metric struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Value   float64  `json:"value"`
	Samples *summary `json:"samples,omitempty"`
	Note    string   `json:"note,omitempty"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal returns the host's stolen and total CPU time so far, in clock
// ticks, from the first line of /proc/stat; zeros where it is unreadable.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// add reports a metric.
func (r *run) add(name, unit string, value float64, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Note: note})
	r.values[name] = value
}

// addSamples reports the median of xs, keeping the distribution.
func (r *run) addSamples(name, unit string, xs []float64, note string) {
	s := summarize(xs)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: s.Median, Samples: &s, Note: note})
	r.values[name] = s.Median
}

// bypass reports per-layer metrics of layers the workload does not call as
// 0, so every traced run carries the full per-layer set.
func (r *run) bypass(names ...string) {
	for _, n := range names {
		r.add(n, unitOf(n), 0, "layer not on this workload's path")
	}
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// problem records a wrong output or an invalid measurement; any problem
// makes the run incorrect.
func (r *run) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// addPhase records one phase's failure accounting.
func (r *run) addPhase(p phase) { r.Phases = append(r.Phases, p) }

func (r *run) fileStem() string {
	trace := 0
	if r.Trace {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, trace)
}

// scratch returns a fresh directory under the output directory; the caller
// removes it.
func (r *run) scratch(pattern string) (string, error) {
	return os.MkdirTemp(r.dir, pattern)
}

// finish prints every metric, writes the result file and prints the final
// JSON line.
func (r *run) finish(stdout io.Writer) error {
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %s, %s; CPU stolen by other guests during the run: %.3f\n",
		r.Host.CPU, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.OS, r.StealShare)
	fmt.Fprintf(stdout, "load: %d connections, %d load goroutines", r.Load.Conns, r.Load.Generators)
	if r.Load.OpenRate > 0 {
		fmt.Fprintf(stdout, ", open loop at %.0f req/s", r.Load.OpenRate)
	}
	fmt.Fprintf(stdout, "\nworkload %s, seed %d, %d s, trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	attempted, failed := 0, 0
	for _, p := range r.Phases {
		fmt.Fprintf(stdout, "phase %-12s sent %d succeeded %d failed %d\n", p.Name, p.Sent, p.Succeeded, p.Failed)
		attempted += p.Sent
		failed += p.Failed
	}
	if attempted == 0 {
		r.problem("no operation was attempted")
	} else {
		r.add("failed_share", "ratio", float64(failed)/float64(attempted), "failed, refused or wrong ÷ attempted")
	}
	// Failed requests enter latency samples at +Inf; a figure they push
	// past every finite value cannot be reported, and the run is incorrect.
	for i := range r.Metrics {
		m := &r.Metrics[i]
		if s := m.Samples; !finite(m.Value) || (s != nil && !(finite(s.Q1) && finite(s.Median) && finite(s.Q3))) {
			r.problem("metric %s is not finite: too many failed operations", m.Name)
			m.Value, m.Samples, r.values[m.Name] = -1, nil, -1
		}
	}

	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Attempted: max(attempted, 1), Failed: failed, Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			r.problem("metric %s was not measured", d.Name)
			v = -1
		}
		final.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	final.Correct = len(r.Problems) == 0

	for _, m := range r.Metrics {
		line := fmt.Sprintf("metric %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Samples != nil && m.Samples.N > 1 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", m.Samples.N, m.Samples.Q1, m.Samples.Q3)
		}
		if m.Note != "" {
			line += "  # " + m.Note
		}
		fmt.Fprintln(stdout, strings.TrimRight(line, " "))
	}
	for _, p := range r.Problems {
		fmt.Fprintln(stdout, "PROBLEM:", p)
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.dir, r.fileStem()+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// runtimeStats are the runtime/metrics counters the per-layer GC and
// allocation metrics are deltas of.
type runtimeStats struct {
	gcCycles   uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// addRuntime reports the GC and allocation deltas since before, per op.
func (r *run) addRuntime(before runtimeStats, ops int) {
	after := readRuntime()
	r.add("gc.cycles", "count", float64(after.gcCycles-before.gcCycles), "GC cycles during the traced pass")
	share := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		share = (after.gcCPU - before.gcCPU) / d
	}
	r.add("gc.cpu_share", "ratio", share, "GC CPU ÷ all CPU during the traced pass (runtime estimate)")
	r.add("alloc_mb_per_op", "MB", float64(after.allocBytes-before.allocBytes)/1e6/float64(max(ops, 1)),
		fmt.Sprintf("heap allocation per operation over %d operations", ops))
}

// heapSampler records the live heap of every GC cycle while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	live []float64 // MB, one reading per GC cycle
}

// sampleHeap starts a sampler that polls every 5 ms, well inside the tens
// of milliseconds between GC cycles of the engine workloads, and keeps the
// live heap of each new cycle: what that cycle found reachable. Stop returns
// the median reading in MB. The largest reading depends on whether a cycle
// happens to end on a short spike of the working set and swung by a quarter
// between runs of one seed; the median stays within a few per cent. The
// heap's whole object footprint also counts garbage not yet collected,
// which swings with GC timing.
func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	last := s[1].Value.Uint64()
	read := func() {
		metrics.Read(s)
		if c := s[1].Value.Uint64(); c != last {
			last = c
			h.live = append(h.live, float64(s[0].Value.Uint64())/1e6)
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				if len(h.live) == 0 { // no cycle ended while sampling
					h.live = append(h.live, float64(s[0].Value.Uint64())/1e6)
				}
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop may be called more than once; only the first call stops the sampler.
func (h *heapSampler) Stop() float64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return median(sorted(h.live))
}

// addHeap reports a pass's live heap; note says how it was taken.
func (r *run) addHeap(mb float64, note string) {
	r.add("heap_live_mb", "MB", mb, note)
}

// liveHeapMB returns the live heap in MB after two forced collections: the
// second one also frees what sync.Pools held through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// timeSetup times n rounds of setup and returns each round's duration in
// seconds. Every round but the last is torn down, untimed, by the teardown
// its setup returned (nil when there is nothing to release), and its garbage
// is collected, so that no round pays for collecting an earlier one's; the
// last round's state is the caller's.
func timeSetup(n int, setup func() (teardown func() error, err error)) ([]float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return nil, err
		}
		xs = append(xs, time.Since(t0).Seconds())
		if i < n-1 && teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		if i < n-1 {
			runtime.GC()
		}
	}
	return xs, nil
}

// compare prints the medians of two sets of result files side by side.
// It refuses to compare results whose host fingerprints differ.
func compare(w io.Writer, dirA, dirB string) error {
	load := func(dir string) ([]run, error) {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return nil, err
		}
		var out []run
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r run
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no result files in %s", dir)
		}
		return out, nil
	}
	a, err := load(dirA)
	if err != nil {
		return err
	}
	b, err := load(dirB)
	if err != nil {
		return err
	}
	ref := a[0].Host
	for _, r := range append(append([]run(nil), a...), b...) {
		if r.Host != ref {
			return fmt.Errorf("refusing to compare: host fingerprint %+v differs from %+v", r.Host, ref)
		}
	}
	type key struct{ workload, metric, unit string }
	vals := func(rs []run) map[key][]float64 {
		m := make(map[key][]float64)
		for _, r := range rs {
			if r.Trace {
				continue
			}
			for _, mt := range r.Metrics {
				k := key{r.Workload, mt.Name, mt.Unit}
				m[k] = append(m[k], mt.Value)
			}
		}
		return m
	}
	va, vb := vals(a), vals(b)
	keys := make([]key, 0, len(va))
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "host: %+v\n", ref)
	fmt.Fprintf(w, "%-11s %-22s %-6s %30s %30s %9s\n", "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A-1")
	for _, k := range keys {
		sa, sb := summarize(va[k]), summarize(vb[k])
		change := math.NaN()
		if sa.Median != 0 {
			change = sb.Median/sa.Median - 1
		}
		fmt.Fprintf(w, "%-11s %-22s %-6s %30s %30s %+8.1f%%\n", k.workload, k.metric, k.unit,
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sa.Median, sa.Q1, sa.Q3, sa.N),
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sb.Median, sb.Q1, sb.Q3, sb.N), 100*change)
	}
	return nil
}
