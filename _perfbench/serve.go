package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	_ "repro/internal/experiment/all"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
)

const (
	// serve-hot: humnetload's trace shape over the 22 report scenarios.
	hotVariants  = 4
	hotZipfS     = 1.1
	hotParamEcho = 0.25
	// hotTraceLen is about what a 10-second run consumes; the loops wrap
	// around the trace when a run gets further.
	hotTraceLen = 1 << 17
	// hotOpenRate is the open loop's fixed arrival rate, about a third of
	// the closed-loop capacity measured when the benchmark was written
	// (README.md), so that a slow phase of a shared host does not push the
	// loop into saturation. It does not follow the measured capacity, so
	// every commit is offered the same load.
	hotOpenRate = 6000.0
	// hotInProcess is how many trace requests the traced run replays
	// through Handler().ServeHTTP with no network in between.
	hotInProcess = 5000
	// rateWindow is the window of the closed loop's windowed throughput.
	rateWindow = 250 * time.Millisecond

	// serve-cold: a universe of 22 × coldVariants triples, large enough
	// that repeat sightings stay rare all through a run. With a small
	// universe the repeats, served from the LRU, grow as a run goes on, so
	// a run that gets further also gets faster.
	coldVariants = 4096
	coldDupEvery = 8
	// coldRestartRate × the pass's seconds is how many requests from the
	// head of the list the restart phase replays, about half of what the
	// fill phase completes today. A fixed count keeps the restart server's
	// LRU, and with it heap_live_mb, independent of the fill's throughput.
	coldRestartRate = 100

	// lateLimit is how far behind schedule the open-loop generator may run,
	// at the median, before the run is reported invalid.
	lateLimit = time.Millisecond

	// Set-up is repeated and its median reported; serve-cold's set-up is
	// a fraction of a millisecond, so it takes many more rounds to settle.
	hotSetupRounds  = 15
	coldSetupRounds = 101
	// coldSetupPause idles the process before each serve-cold set-up
	// round, so that every round starts, as a daemon does, on an idle
	// process. Rounds run back to back all fall into one phase of a shared
	// host, whose speed swings by half from one phase to the next.
	coldSetupPause = 10 * time.Millisecond

	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// daemonConfig is humnetd's default shape with one worker per scenario, so
// the connections alone set the server's parallelism.
func daemonConfig(cache *experiment.Cache) serve.Config {
	return serve.Config{Cache: cache, LRUSize: 4096, LRUBytes: 64 << 20, MaxQueue: 1024, ScenarioWorkers: 1}
}

// triple is one (scenario, seed) request at default params.
type triple struct {
	id   string
	seed uint64
}

func (t triple) query() string {
	return "id=" + url.QueryEscape(t.id) + "&seed=" + strconv.FormatUint(t.seed, 10)
}

func reportIDs() []string {
	var ids []string
	for _, sc := range experiment.Report() {
		ids = append(ids, sc.ID())
	}
	return ids
}

// daemon is a serve.Server behind a loopback listener. With a tracer
// stored, its handler records a serve.handler span per request, parented to
// the client's span named in the request headers.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
	tr   atomic.Pointer[tracer]
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	cfg.Now = time.Now
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: serve.New(cfg), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h := d.srv.Handler()
	d.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := d.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(hdrSpan), 10, 64)
		id, _ := strconv.ParseInt(req.Header.Get(hdrReq), 10, 64)
		sp := tr.begin("serve.handler", parent, id)
		h.ServeHTTP(w, req)
		sp.end()
	})}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for its serve loop to return. It
// then drops the server, whose memory is collected even while the daemon
// value is still referenced. Stopping a stopped daemon does nothing.
func (d *daemon) stop() error {
	if d.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv, d.hs = nil, nil
	return err
}

// conn is one keep-alive client connection, used by one load goroutine,
// with a body buffer reused across its requests.
type conn struct {
	client    *http.Client
	transport *http.Transport
	body      bytes.Buffer
}

// conns is the client side: one conn per load goroutine.
type conns []*conn

func newConns(n int) conns {
	cs := make(conns, n)
	for i := range cs {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cs[i] = &conn{client: &http.Client{Transport: t, Timeout: 60 * time.Second}, transport: t}
	}
	return cs
}

// closeIdle drops the pooled connections, e.g. before the server they point
// at is stopped.
func (cs conns) closeIdle() {
	for _, c := range cs {
		c.transport.CloseIdleConnections()
	}
}

// outcome is one measured request.
type outcome struct {
	idx  int
	lat  time.Duration // from send (closed loop) or from due time (open loop)
	late time.Duration // open loop: send time minus due time
	done time.Duration // closed loop: completion time since the loop started
	sum  [sha256.Size]byte
	ok   bool // 200 with a fully read body
}

// get sends one /run request and returns its latency and body digest. With
// a tracer it records a serve.request span, sent along in the headers so
// the handler's span becomes its child.
func (d *daemon) get(c *conn, query string, tr *tracer) (time.Duration, [sha256.Size]byte, bool) {
	var sum [sha256.Size]byte
	req, err := http.NewRequest(http.MethodGet, d.base+"/run?"+query, nil)
	if err != nil {
		return 0, sum, false
	}
	var sp openSpan
	if tr != nil {
		rid := tr.newID()
		sp = tr.begin("serve.request", 0, rid)
		req.Header.Set(hdrReq, strconv.FormatInt(rid, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.id, 10))
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return time.Since(t0), sum, false
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body was read to the end or the read failed; either way it is done
	lat := time.Since(t0)
	sp.end()
	if err != nil || resp.StatusCode != http.StatusOK {
		return lat, sum, false
	}
	return lat, sha256.Sum256(c.body.Bytes()), true
}

// closedLoop sends queries[first], queries[first+1], ... (wrapping around)
// with one goroutine per connection, each sending its next request when the
// previous one has completed, until limit requests have been sent or the
// deadline has passed (a zero deadline never passes). It returns the
// outcomes in request order and the loop's wall time.
func (d *daemon) closedLoop(cs conns, queries []string, first, limit int, deadline time.Time, tr *tracer) ([]outcome, time.Duration) {
	var next atomic.Int64
	per := make([][]outcome, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range cs {
		wg.Add(1)
		go func(g int, c *conn) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= limit || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				i := first + k
				lat, sum, ok := d.get(c, queries[i%len(queries)], tr)
				per[g] = append(per[g], outcome{idx: i, lat: lat, done: time.Since(start), sum: sum, ok: ok})
			}
		}(g, c)
	}
	wg.Wait()
	return merged(per), time.Since(start)
}

// openLoop sends n requests starting at queries[first] on a fixed schedule,
// request k due at start + k/rate, whether or not earlier ones have
// completed. Each connection's goroutine takes the next due request as soon
// as it is free, so a stall shows up as lateness (send minus due time) and
// in the latencies, which are timed from the due time.
func (d *daemon) openLoop(cs conns, queries []string, first, n int, rate float64, tr *tracer) []outcome {
	var next atomic.Int64
	per := make([][]outcome, len(cs))
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for g, c := range cs {
		wg.Add(1)
		go func(g int, c *conn) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				sleepUntil(due)
				sent := time.Now()
				i := first + k
				_, sum, ok := d.get(c, queries[i%len(queries)], tr)
				per[g] = append(per[g], outcome{idx: i, lat: time.Since(due), late: sent.Sub(due), sum: sum, ok: ok})
			}
		}(g, c)
	}
	wg.Wait()
	return merged(per)
}

func merged(per [][]outcome) []outcome {
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// serverHeapMB stops d and returns the live heap its server held: the live
// heap before the stop minus the live heap after it, both read after a
// forced collection with nothing else changing in between. The client
// connections are closed first, as they belong to the benchmark.
func serverHeapMB(d *daemon, cs conns) (float64, error) {
	cs.closeIdle()
	up := liveHeapMB()
	err := d.stop()
	return up - liveHeapMB(), err
}

// tally checks every outcome's body against the reference digest of its
// triple and records the phase. A refused or failed request and a wrong
// body both count as failed; a wrong body is also a problem. It returns
// the latencies in ms, with failed requests at +Inf: they miss any limit.
func (r *run) tally(name string, outs []outcome, tripleOf func(int) triple, ref map[triple][sha256.Size]byte) []float64 {
	p := phase{Name: name, Sent: len(outs)}
	wrong := 0
	lats := make([]float64, len(outs))
	for i, o := range outs {
		lats[i] = ms(o.lat)
		want, known := ref[tripleOf(o.idx)]
		switch {
		case !o.ok:
			p.Failed++
			lats[i] = math.Inf(1)
		case !known || o.sum != want:
			wrong++
			p.Failed++
			lats[i] = math.Inf(1)
		default:
			p.Succeeded++
		}
	}
	if wrong > 0 {
		r.problem("%s: %d response bodies differ from the reference rendering", name, wrong)
	}
	r.addPhase(p)
	return lats
}

// references runs every triple once through a cache-less Runner and renders
// it as /run does, returning each body's SHA-256 by triple and the results.
// With a tracer it records a scenario.<ID> span per execution and an
// experiment.render_json span per rendering.
func references(ctx context.Context, ts []triple, workers int, tr *tracer) (map[triple][sha256.Size]byte, []*experiment.Result, error) {
	sums := make([][sha256.Size]byte, len(ts))
	results := make([]*experiment.Result, len(ts))
	err := parallel.ForEach(ctx, len(ts), workers, func(i int) error {
		sc, ok := experiment.Get(ts[i].id)
		if !ok {
			return fmt.Errorf("unknown scenario %q", ts[i].id)
		}
		req := tr.newID()
		sp := tr.begin("scenario."+sc.ID(), 0, req)
		res, err := (&experiment.Runner{ScenarioWorkers: 1}).RunOne(ctx, experiment.Job{Scenario: sc, Seed: ts[i].seed})
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("experiment.render_json", 0, req)
		body, err := experiment.RenderOneJSON(res)
		sp.end()
		if err != nil {
			return err
		}
		sums[i], results[i] = sha256.Sum256(body), res
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	ref := make(map[triple][sha256.Size]byte, len(ts))
	for i, t := range ts {
		ref[t] = sums[i]
	}
	return ref, results, nil
}

// serveHot drives humnetd's handler with the Zipf trace humnetload uses:
// a closed loop measures capacity, then an open loop at hotOpenRate
// measures latency from each request's due time.
func serveHot(ctx context.Context, r *run) error {
	ids := reportIDs()
	trace, _, err := serve.BuildTrace(serve.TraceSpec{IDs: ids, Requests: hotTraceLen, Variants: hotVariants,
		ZipfS: hotZipfS, Seed: r.Seed, ParamEcho: hotParamEcho})
	if err != nil {
		return err
	}
	queries := make([]string, len(trace))
	for i, t := range trace {
		queries[i] = t.Query
	}
	tripleOf := func(i int) triple { t := trace[i%len(trace)]; return triple{t.ScenarioID, t.Seed} }
	var universe []triple
	for _, id := range ids {
		sc, _ := experiment.Get(id)
		for v := 0; v < hotVariants; v++ {
			universe = append(universe, triple{id, sc.DefaultSeed() + uint64(v)})
		}
	}
	fill := make([]string, len(universe))
	for i, t := range universe {
		fill[i] = t.query()
	}
	ref, results, err := references(ctx, universe, r.Load.Conns, r.tr)
	if err != nil {
		return err
	}

	cs := newConns(r.Load.Conns)
	defer cs.closeIdle()
	var d *daemon
	var filled []outcome
	rounds, err := timeSetup(hotSetupRounds, func() (func() error, error) {
		dd, err := startDaemon(daemonConfig(nil))
		if err != nil {
			return nil, err
		}
		d = dd
		filled, _ = dd.closedLoop(cs, fill, 0, len(fill), time.Time{}, nil)
		return func() error { cs.closeIdle(); return dd.stop() }, nil
	})
	if err != nil {
		return err
	}
	defer d.stop() // the run's results are in; a failed shutdown changes none of them
	r.tally("lru-fill", filled, func(i int) triple { return universe[i] }, ref)
	r.addSamples("setup_s", "s", rounds, "server start plus LRU fill of every trace triple")
	r.Load.OpenRate = hotOpenRate

	cursor := 0
	type hotPass struct {
		closedLat, openLat []float64
		late               []float64
		rate               float64
		ops                int
	}
	pass := func(tag string, tr *tracer, dur time.Duration) hotPass {
		d.tr.Store(tr)
		defer d.tr.Store(nil)
		closed, _ := d.closedLoop(cs, queries, cursor, math.MaxInt, time.Now().Add(dur/2), tr)
		cursor += len(closed)
		n := int(hotOpenRate * (dur / 2).Seconds())
		open := d.openLoop(cs, queries, cursor, n, hotOpenRate, tr)
		cursor += n
		p := hotPass{ops: len(closed) + len(open)}
		p.closedLat = r.tally("closed"+tag, closed, tripleOf, ref)
		p.openLat = r.tally("open"+tag, open, tripleOf, ref)
		p.rate = windowedRate(closed, rateWindow)
		for _, o := range open {
			p.late = append(p.late, ms(o.late))
		}
		if late := median(sorted(p.late)); late > ms(lateLimit) {
			r.problem("open loop%s invalid: the generator ran %.3f ms behind schedule at the median (limit %v)", tag, late, lateLimit)
		}
		return p
	}
	full := time.Duration(r.Seconds) * time.Second
	if !r.Trace {
		p := pass("", nil, full)
		heapMB, err := serverHeapMB(d, cs)
		if err != nil {
			return err
		}
		r.add("rate_per_s", "1/s", p.rate, "req_per_s: closed loop, completed requests per second")
		r.addSamples("latency_ms", "ms", p.openLat, "req_p50_ms: open loop, timed from each request's due time")
		r.addTail("req_p99_ms", p.openLat, "open loop")
		r.addSamples("closed_p50_ms", "ms", p.closedLat, "closed-loop request latency")
		r.addHeap(heapMB, "held by the server at the end of the open loop")
		r.addShares(trace)
		r.addSamples("serve.gen_late_ms", "ms", p.late, "open-loop generator lateness")
		return nil
	}

	before := d.srv.Metrics()
	base := pass("", nil, full/2)
	rt := readRuntime()
	traced := pass("-traced", r.tr, full/2)
	r.addRuntime(rt, traced.ops)
	r.addOverhead(median(sorted(base.openLat)), median(sorted(traced.openLat)))
	now := d.srv.Metrics()
	r.addServeCounters(now, before, float64(now.Executed-before.Executed)/float64(len(universe)))
	r.addSamples("serve.gen_late_ms", "ms", traced.late, "open-loop generator lateness, traced pass")
	lt := r.tr.selfTimes()
	if req := lt["serve.request"]; req != nil {
		r.addSamples("serve.transport_us", "us", scale(req.Selfs, 1e-3), "client latency minus the handler span of the same request")
	}

	r.inProcess(d.srv.Handler(), queries, tripleOf, ref)
	if err := probeExperiment(r.tr, queries[:hotInProcess]); err != nil {
		return err
	}
	if err := r.probeCache(results); err != nil {
		return err
	}
	r.addLayerTimes(ids)
	r.bypass("bgpsim.sweep_rows", "bgpsim.cells_per_delta", "timeline.cascade_injected", "timeline.cascade_dropped")
	return nil
}

// addShares reports how skewed the trace is: the share of its requests that
// go to its most requested triple and to its four most requested.
func (r *run) addShares(trace []serve.TraceRequest) {
	counts := make(map[triple]int)
	for _, t := range trace {
		counts[triple{t.ScenarioID, t.Seed}]++
	}
	var xs []float64
	for _, c := range counts {
		xs = append(xs, float64(c)/float64(len(trace)))
	}
	xs = sorted(xs)
	top4 := 0.0
	for _, x := range xs[max(len(xs)-4, 0):] {
		top4 += x
	}
	r.add("serve.top1_share", "ratio", xs[len(xs)-1], "share of the trace's requests for its most requested triple")
	r.add("serve.top4_share", "ratio", top4, "share of the trace's requests for its four most requested triples")
}

// coldList draws serve-cold's request list: blocks holding one request per
// report scenario in a seeded order, each at a seeded variant seed. Every
// coldDupEvery-th request is repeated back to back, so both connections ask
// for that triple at once and the server must coalesce them.
func coldList(ids []string, seed uint64, blocks int) []triple {
	r := rng.New(seed)
	var list []triple
	for b := 0; b < blocks; b++ {
		for _, k := range r.Perm(len(ids)) {
			sc, _ := experiment.Get(ids[k])
			t := triple{ids[k], sc.DefaultSeed() + uint64(r.Intn(coldVariants))}
			list = append(list, t)
			if len(list)%coldDupEvery == 0 {
				list = append(list, t)
			}
		}
	}
	return list
}

// coldPass is one serve-cold measurement: the fill phase on a fresh cache
// and the restart phase on a new server over the same cache.
type coldPass struct {
	fill, restart           []outcome
	fillTime, restartTime   time.Duration
	fillStats, restartStats serve.Snapshot
	heapMB                  float64
}

// serveCold fills a fresh disk cache through the daemon with a closed loop,
// then replays the same requests against a new server on that cache.
func serveCold(ctx context.Context, r *run) error {
	ids := reportIDs()
	list := coldList(ids, r.Seed, 30*r.Seconds)
	queries := make([]string, len(list))
	for i, t := range list {
		queries[i] = t.query()
	}
	cs := newConns(r.Load.Conns)
	defer cs.closeIdle()

	// open starts a server on the empty cache directory dir: the daemon's
	// own start, which is the set-up being timed. Creating the directory
	// is not timed, as its cost follows the file system's pending work
	// rather than the server. Nor are the client connections, which the
	// fill phase's first requests dial: a loopback hand-off costs more than
	// the rest of the set-up and swings by half with the host's load.
	open := func(dir string) (*daemon, error) {
		cache, err := experiment.OpenCache(dir)
		if err != nil {
			return nil, err
		}
		return startDaemon(daemonConfig(cache))
	}
	var d *daemon
	var dir string
	var rounds []float64
	for i := 0; i < coldSetupRounds; i++ {
		if d != nil {
			if err := errors.Join(d.stop(), os.RemoveAll(dir)); err != nil {
				return err
			}
		}
		var err error
		if dir, err = r.scratch("cold-cache-*"); err != nil {
			return err
		}
		time.Sleep(coldSetupPause)
		t0 := time.Now()
		if d, err = open(dir); err != nil {
			return err
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	r.addSamples("setup_s", "s", rounds, "OpenCache on an empty directory and a server listening on it")

	// pass runs both phases on d and its cache directory, then stops the
	// servers and removes the directory.
	pass := func(tr *tracer, dur time.Duration, d *daemon, dir string) (coldPass, error) {
		var p coldPass
		defer os.RemoveAll(dir)
		d.tr.Store(tr)
		p.fill, p.fillTime = d.closedLoop(cs, queries, 0, len(queries), time.Now().Add(dur), tr)
		p.fillStats = d.srv.Metrics()
		cs.closeIdle()
		if err := d.stop(); err != nil {
			return p, err
		}
		cache, err := experiment.OpenCache(dir)
		if err != nil {
			return p, err
		}
		d2, err := startDaemon(daemonConfig(cache))
		if err != nil {
			return p, err
		}
		d2.tr.Store(tr)
		n := min(len(p.fill), max(1, int(coldRestartRate*dur.Seconds())))
		p.restart, p.restartTime = d2.closedLoop(cs, queries, 0, n, time.Time{}, tr)
		p.restartStats = d2.srv.Metrics()
		p.heapMB, err = serverHeapMB(d2, cs)
		return p, err
	}

	full := time.Duration(r.Seconds) * time.Second
	if !r.Trace {
		p, err := pass(nil, full, d, dir)
		if err != nil {
			return err
		}
		ref, _, err := references(ctx, distinctTriples(list, len(p.fill)), r.Load.Conns, nil)
		if err != nil {
			return err
		}
		lat, restartLat, _ := r.checkCold("", p, list, ref)
		r.add("rate_per_s", "1/s", okCount(p.fill)/p.fillTime.Seconds(), "req_per_s: fill phase, completed requests per second")
		r.add("latency_ms", "ms", mean(lat), "fill phase: mean request latency")
		r.addSamples("req_p50_ms", "ms", lat, "fill phase, closed loop, every request")
		r.addTail("req_p99_ms", lat, "fill phase")
		r.addSamples("restart_p50_ms", "ms", restartLat, "restart phase, closed loop, every request")
		r.add("restart_req_per_s", "1/s", okCount(p.restart)/p.restartTime.Seconds(), "restart phase: warm disk cache, empty LRU")
		r.addHeap(p.heapMB, "held by the server at the end of the restart phase")
		return nil
	}

	base, err := pass(nil, full/2, d, dir)
	if err != nil {
		return err
	}
	dir2, err := r.scratch("cold-cache-*")
	if err != nil {
		return err
	}
	d2, err := open(dir2)
	if err != nil {
		return err
	}
	rt := readRuntime()
	traced, err := pass(r.tr, full/2, d2, dir2)
	if err != nil {
		return err
	}
	r.addRuntime(rt, len(traced.fill)+len(traced.restart))
	// Both passes start at the head of the list, so the longer one's
	// triples cover the other's.
	ref, results, err := references(ctx, distinctTriples(list, max(len(base.fill), len(traced.fill))), r.Load.Conns, r.tr)
	if err != nil {
		return err
	}
	baseLat, _, _ := r.checkCold("", base, list, ref)
	lat, _, distinct := r.checkCold("-traced", traced, list, ref)
	r.addOverhead(mean(baseLat), mean(lat))
	r.addServeCounters(sumSnap(traced.fillStats, traced.restartStats), serve.Snapshot{},
		float64(traced.fillStats.Executed)/float64(max(distinct, 1)))
	r.add("serve.fill.exec_ratio", "ratio", traced.fillStats.ExecRatio, "fill phase: executions ÷ successful requests")
	r.add("serve.restart.disk_hit_ratio", "ratio", traced.restartStats.DiskHitRatio, "restart phase: disk hits ÷ successful requests")
	if err := r.probeCache(results); err != nil {
		return err
	}
	r.addLayerTimes(ids)
	r.bypass("serve.allocs_per_req", "serve.bytes_per_req",
		"bgpsim.sweep_rows", "bgpsim.cells_per_delta", "timeline.cascade_injected", "timeline.cascade_dropped")
	return nil
}

// checkCold checks one serve-cold pass: every body against the reference,
// at most one execution per distinct triple while filling, and none on
// restart. It returns the fill latencies and the distinct triple count.
func (r *run) checkCold(tag string, p coldPass, list []triple, ref map[triple][sha256.Size]byte) (fill, restart []float64, distinct int) {
	tripleOf := func(i int) triple { return list[i] }
	fill = r.tally("fill"+tag, p.fill, tripleOf, ref)
	restart = r.tally("restart"+tag, p.restart, tripleOf, ref)
	distinct = len(distinctTriples(list, len(p.fill)))
	switch got := int(p.fillStats.Executed); {
	case got > distinct:
		r.problem("fill%s: %d scenario executions for %d distinct triples", tag, got, distinct)
	case got < distinct && p.fillStats.RunOK == int64(len(p.fill)):
		r.problem("fill%s: only %d executions for %d distinct triples on a fresh cache", tag, got, distinct)
	}
	if p.restartStats.Executed != 0 {
		r.problem("restart%s: %d scenario executions; every triple should come from the disk cache", tag, p.restartStats.Executed)
	}
	return fill, restart, distinct
}

// distinctTriples lists the distinct triples of list[:n] in first-seen
// order.
func distinctTriples(list []triple, n int) []triple {
	seen := make(map[triple]bool)
	var out []triple
	for _, t := range list[:n] {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// windowedRate is a closed loop's completed requests per second, as the
// median over the loop's whole windows of length w: a stall of the host
// lasting a fraction of the loop moves a few windows, not the figure.
func windowedRate(outs []outcome, w time.Duration) float64 {
	var counts []float64
	for _, o := range outs {
		k := int(o.done / w)
		for len(counts) <= k {
			counts = append(counts, 0)
		}
		if o.ok {
			counts[k]++
		}
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1] // the last window is cut short by the deadline
	}
	return median(sorted(counts)) / w.Seconds()
}

func okCount(outs []outcome) float64 {
	n := 0
	for _, o := range outs {
		if o.ok {
			n++
		}
	}
	return float64(n)
}

func sumSnap(a, b serve.Snapshot) serve.Snapshot {
	return serve.Snapshot{RunOK: a.RunOK + b.RunOK, LRUHits: a.LRUHits + b.LRUHits, DiskHits: a.DiskHits + b.DiskHits,
		Coalesced: a.Coalesced + b.Coalesced, Executed: a.Executed + b.Executed,
		ShedQueue: a.ShedQueue + b.ShedQueue, ShedWait: a.ShedWait + b.ShedWait}
}

// addServeCounters reports the server's cache-tier counters as deltas from
// before, and the measured executions per distinct triple.
func (r *run) addServeCounters(now, before serve.Snapshot, execPerDistinct float64) {
	runs := float64(max(now.RunOK-before.RunOK, 1))
	r.add("serve.lru_hit_ratio", "ratio", float64(now.LRUHits-before.LRUHits)/runs, "LRU hits ÷ successful /run requests")
	r.add("serve.disk_hit_ratio", "ratio", float64(now.DiskHits-before.DiskHits)/runs, "disk-cache hits ÷ successful /run requests")
	r.add("serve.exec_ratio", "ratio", float64(now.Executed-before.Executed)/runs, "scenario executions ÷ successful /run requests")
	r.add("serve.coalesced", "count", float64(now.Coalesced-before.Coalesced), "requests that shared another's in-flight execution")
	r.add("serve.shed", "count", float64(now.ShedQueue+now.ShedWait-before.ShedQueue-before.ShedWait), "429 and 503 answers")
	r.add("serve.exec_per_distinct", "ratio", execPerDistinct, "measured-phase executions ÷ distinct triples")
}

// addTail reports the highest percentile with at least ten samples beyond
// it, naming the percentile and the sample count.
func (r *run) addTail(name string, lat []float64, what string) {
	s := sorted(lat)
	if pct, v, ok := tail(s); ok {
		r.add(name, "ms", v, fmt.Sprintf("%s: p%g of %d requests", what, pct, len(s)))
	}
}

// addOverhead reports how much tracing slowed the traced pass relative to
// the untraced pass of the same run.
func (r *run) addOverhead(untraced, traced float64) {
	r.add("trace.overhead_share", "ratio", traced/untraced-1,
		fmt.Sprintf("traced minus untraced latency_ms (%.4g vs %.4g ms), as a share of untraced", traced, untraced))
}

// inProcess replays hotInProcess trace requests through the handler with
// no network in between, for the handler's own time and allocations.
func (r *run) inProcess(h http.Handler, queries []string, tripleOf func(int) triple, ref map[triple][sha256.Size]byte) {
	n := min(hotInProcess, len(queries))
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/run?"+queries[i], nil)
		recs[i] = httptest.NewRecorder()
	}
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		starts[i] = time.Now()
		h.ServeHTTP(recs[i], reqs[i])
		ends[i] = time.Now()
	}
	runtime.ReadMemStats(&m1)
	lat := make([]float64, n)
	wrong := 0
	for i := range reqs {
		id := r.tr.newID()
		r.tr.record("serve.handler_inproc", id, 0, id, starts[i], ends[i])
		lat[i] = float64(ends[i].Sub(starts[i])) / 1e3
		if recs[i].Code != http.StatusOK || sha256.Sum256(recs[i].Body.Bytes()) != ref[tripleOf(i)] {
			wrong++
		}
	}
	if wrong > 0 {
		r.problem("in-process replay: %d of %d responses differ from the reference", wrong, n)
	}
	r.addSamples("serve.handler_us", "us", lat, fmt.Sprintf("Handler().ServeHTTP over %d trace requests, no network", n))
	r.add("serve.allocs_per_req", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n), "heap allocations per in-process request")
	r.add("serve.bytes_per_req", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), "heap bytes allocated per in-process request")
}

// probeExperiment repeats, from outside the server, the per-request work
// of /run's parse step: Spec.Parse of every query param, Schema.Merge and
// CacheKey, one span each under an experiment.request span.
func probeExperiment(tr *tracer, queries []string) error {
	for _, raw := range queries {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return err
		}
		sc, ok := experiment.Get(q.Get("id"))
		if !ok {
			return fmt.Errorf("unknown scenario in %q", raw)
		}
		seed, err := strconv.ParseUint(q.Get("seed"), 10, 64)
		if err != nil {
			return err
		}
		req := tr.newID()
		top := tr.begin("experiment.request", 0, req)
		schema := sc.Params()
		over := make(experiment.Values)
		sp := tr.begin("experiment.parse", top.id, req)
		for name, vals := range q {
			if name == "id" || name == "seed" {
				continue
			}
			spec, ok := schema.Lookup(name)
			if !ok {
				return fmt.Errorf("scenario %s has no param %q", sc.ID(), name)
			}
			if over[name], err = spec.Parse(vals[0]); err != nil {
				return err
			}
		}
		sp.end()
		sp = tr.begin("experiment.merge", top.id, req)
		merged, err := schema.Merge(over)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("experiment.key", top.id, req)
		_ = experiment.CacheKey(sc.ID(), merged, seed)
		sp.end()
		top.end()
	}
	return nil
}

// probeCache stores and reloads the workload's results in a scratch disk
// cache, one span per Cache.Put and Cache.Get, and checks that a reloaded
// result renders to the same bytes.
func (r *run) probeCache(results []*experiment.Result) error {
	dir, err := r.scratch("cache-probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := experiment.OpenCache(dir)
	if err != nil {
		return err
	}
	keys := make([]string, len(results))
	for i, res := range results {
		sc, _ := experiment.Get(res.ID)
		merged, err := sc.Params().Merge(nil)
		if err != nil {
			return err
		}
		keys[i] = experiment.CacheKey(res.ID, merged, res.Seed)
		sp := r.tr.begin("experiment.cache_put", 0, 0)
		err = cache.Put(keys[i], res)
		sp.end()
		if err != nil {
			return err
		}
	}
	wrong := 0
	for i, res := range results {
		sp := r.tr.begin("experiment.cache_get", 0, 0)
		got, ok := cache.Get(keys[i], res.ID)
		sp.end()
		want, err1 := experiment.RenderOneJSON(res)
		have, err2 := experiment.RenderOneJSON(got)
		if !ok || err1 != nil || err2 != nil || string(want) != string(have) {
			wrong++
		}
	}
	if wrong > 0 {
		r.problem("cache probe: %d of %d results did not survive Put and Get", wrong, len(results))
	}
	return nil
}

// addLayerTimes reports the mean time per call of the experiment and
// scenario layers from the recorded spans.
func (r *run) addLayerTimes(ids []string) {
	lt := r.tr.selfTimes()
	for _, m := range []struct{ span, metric, what string }{
		{"experiment.parse", "experiment.parse_us", "Spec.Parse of every query param"},
		{"experiment.merge", "experiment.merge_us", "Schema.Merge"},
		{"experiment.key", "experiment.key_us", "CacheKey"},
		{"experiment.render_json", "experiment.render_json_us", "RenderOneJSON"},
		{"experiment.cache_put", "experiment.cache_put_us", "Cache.Put"},
		{"experiment.cache_get", "experiment.cache_get_us", "Cache.Get"},
	} {
		if l := lt[m.span]; l != nil {
			r.add(m.metric, "us", l.perCall(time.Microsecond), fmt.Sprintf("%s, mean of %d calls", m.what, l.Calls))
		}
	}
	for _, id := range ids {
		if l := lt["scenario."+id]; l != nil {
			r.add("scenario."+id+"_ms", "ms", l.perCall(time.Millisecond), fmt.Sprintf("Runner.RunOne without cache, mean of %d runs", l.Calls))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
