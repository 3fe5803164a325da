package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/cn"
	"repro/internal/rng"
	"repro/internal/timeline"
)

// sweepShape is half the as10k scale of internal/bgpsim's engine
// benchmarks (1600 mids, 8400 stubs). At as10k one leak plus hijack pair
// takes about 11 s, so a run holds one or two samples and one stall of the
// host moves the run's figure by half; at this size a run holds several
// pairs and reports their median.
var sweepShape = bgpsim.HierarchyOpts{NMid: 800, NStub: 4200, Hubs: 24, OriginEvery: 16}

// engineSetupRounds is how many times sweep and replay set up; the median
// is reported.
const engineSetupRounds = 9

// The replay workload: a flap storm over a 1k-AS hierarchy merged with
// community-network churn, coupled by a demand cascade.
const (
	replayMids, replayStubs = 160, 840
	replayTicks             = 200
	flapPerTick, flapHold   = 3, 4
	cnMembers               = 24
	cnFailProb              = 0.04
	cnRepairAfter           = 4
	surgeBelow, surgeScale  = 0.95, 2.0
	// churnSalt separates the churn stream's seed from the storm's.
	churnSalt = 0x636e
)

// sweepDigest hashes every leak and hijack row; equal digests mean equal
// sweeps.
func sweepDigest(leak []bgpsim.LeakRow, hijack []bgpsim.HijackRow) [sha256.Size]byte {
	h := sha256.New()
	for _, r := range leak {
		fmt.Fprintf(h, "leak %s %d %d %d %s\n", r.LeakerKind, r.LeakerASN, r.Providers, r.Affected, fbits(r.AffectedShare))
	}
	for _, r := range hijack {
		fmt.Fprintf(h, "hijack %s %d %d %s\n", r.AttackerKind, r.AttackerASN, r.Captured, fbits(r.CapturedShare))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// fbits formats a float exactly.
func fbits(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// sweep times one leak sweep plus one hijack sweep at sweepShape, repeated
// for the run's length, and checks every repetition's rows against a
// workers = 1 reference taken during set-up.
func sweep(ctx context.Context, r *run) error {
	workers := r.Load.Conns
	rounds, err := timeSetup(engineSetupRounds, func() (func() error, error) {
		req := r.tr.newID()
		sp := r.tr.begin("bgpsim.build", 0, req)
		h, err := bgpsim.BuildHierarchyOpts(rng.New(r.Seed).Split(), sweepShape)
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = r.tr.begin("bgpsim.converge", 0, req)
		_, err = h.Topo.ConvergeStateCtx(ctx, workers)
		sp.end()
		return nil, err
	})
	if err != nil {
		return err
	}
	r.addSamples("setup_s", "s", rounds, "hierarchy build plus base converge, as the sweeps do first")

	refLeak, err := bgpsim.RunLeakSweepOpts(sweepShape, r.Seed, 1)
	if err != nil {
		return err
	}
	refHijack, err := bgpsim.RunHijackSweepOpts(sweepShape, r.Seed, 1)
	if err != nil {
		return err
	}
	want := sweepDigest(refLeak, refHijack)
	rows := len(refLeak) + len(refHijack)

	type sweepPass struct {
		pairs  []float64 // seconds per leak+hijack pair
		heapMB float64
	}
	pass := func(tag string, tr *tracer, dur time.Duration) (sweepPass, error) {
		var p sweepPass
		ph := phase{Name: "sweep" + tag}
		heap := sampleHeap()
		defer heap.Stop()
		for start := time.Now(); len(p.pairs) == 0 || time.Since(start) < dur; {
			req := tr.newID()
			t0 := time.Now()
			sp := tr.begin("bgpsim.leak_sweep", 0, req)
			leak, err := bgpsim.RunLeakSweepOpts(sweepShape, r.Seed, workers)
			sp.end()
			if err != nil {
				return p, err
			}
			sp = tr.begin("bgpsim.hijack_sweep", 0, req)
			hijack, err := bgpsim.RunHijackSweepOpts(sweepShape, r.Seed, workers)
			sp.end()
			if err != nil {
				return p, err
			}
			p.pairs = append(p.pairs, time.Since(t0).Seconds())
			ph.Sent++
			if sweepDigest(leak, hijack) != want {
				ph.Failed++
				r.problem("sweep%s: rows differ from the workers = 1 reference", tag)
			} else {
				ph.Succeeded++
			}
		}
		p.heapMB = heap.Stop()
		r.addPhase(ph)
		return p, nil
	}

	full := time.Duration(r.Seconds) * time.Second
	if !r.Trace {
		p, err := pass("", nil, full)
		if err != nil {
			return err
		}
		r.addSamples("latency_ms", "ms", scale(p.pairs, 1e3), "sweep_s in ms: one leak sweep plus one hijack sweep")
		r.add("rate_per_s", "1/s", float64(rows)/median(sorted(p.pairs)), fmt.Sprintf("sweep rows per second, %d rows per pair", rows))
		r.add("sweep_s", "s", median(sorted(p.pairs)), "one leak sweep plus one hijack sweep")
		r.addHeap(p.heapMB, "median over the measured span's GC cycles of the live heap each found")
		return nil
	}
	base, err := pass("", nil, full/2)
	if err != nil {
		return err
	}
	rt := readRuntime()
	traced, err := pass("-traced", r.tr, full/2)
	if err != nil {
		return err
	}
	r.addRuntime(rt, rows*len(traced.pairs))
	r.addOverhead(1e3*median(sorted(base.pairs)), 1e3*median(sorted(traced.pairs)))
	lt := r.tr.selfTimes()
	converge := lt["bgpsim.converge"]
	convergeMS := converge.perCall(time.Millisecond)
	r.add("bgpsim.converge_ms", "ms", convergeMS, fmt.Sprintf("ConvergeStateCtx at workers = %d, mean of %d set-up rounds", workers, converge.Calls))
	for _, name := range []string{"leak_sweep", "hijack_sweep"} {
		l := lt["bgpsim."+name]
		r.add("bgpsim."+name+"_ms", "ms", l.perCall(time.Millisecond), fmt.Sprintf("mean of %d sweeps", l.Calls))
	}
	perRow := (median(sorted(traced.pairs))*1e3 - 2*convergeMS) * 1e3 / float64(rows)
	r.add("bgpsim.per_row_us", "us", perRow, "(sweep pair − 2 × converge) ÷ rows")
	r.add("bgpsim.sweep_rows", "count", float64(rows), fmt.Sprintf("%d leak + %d hijack rows", len(refLeak), len(refHijack)))
	r.bypass("serve.lru_hit_ratio", "serve.disk_hit_ratio", "serve.exec_ratio", "serve.exec_per_distinct",
		"serve.coalesced", "serve.shed", "serve.allocs_per_req", "serve.bytes_per_req",
		"bgpsim.cells_per_delta", "timeline.cascade_injected", "timeline.cascade_dropped")
	return nil
}

// replayWorld is one built composition input: the live BGP machine over
// the generated hierarchy and the merged event stream.
type replayWorld struct {
	routing *timeline.BGPMachine
	stream  timeline.Stream
}

// buildReplay builds the replay topology from seed, converges it into a
// BGP machine and generates the merged flap-storm and churn stream.
func buildReplay(ctx context.Context, seed uint64, workers int, tr *tracer) (*replayWorld, error) {
	req := tr.newID()
	sp := tr.begin("bgpsim.build", 0, req)
	h, err := bgpsim.BuildHierarchy(rng.New(seed), replayMids, replayStubs)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("bgpsim.converge", 0, req)
	routing, err := timeline.NewBGPMachine(ctx, h.Topo, workers)
	sp.end()
	if err != nil {
		return nil, err
	}
	storm, err := timeline.GenFlapStorm(h, seed, replayTicks, flapPerTick, flapHold)
	if err != nil {
		return nil, err
	}
	churn, err := timeline.GenCNChurn(cnMembers, seed^churnSalt, replayTicks, cnFailProb, cnRepairAfter)
	if err != nil {
		return nil, err
	}
	stream, err := timeline.Merge(storm, churn)
	if err != nil {
		return nil, err
	}
	return &replayWorld{routing: routing, stream: stream}, nil
}

// compose wires the world's BGP machine and a fresh community-network
// machine with the demand cascade: each tick the routing part's reach share
// sets the community's demand scale for the next tick. wrap, when not nil,
// wraps each part's machine.
func (w *replayWorld) compose(seed uint64, wrap func(name string, m timeline.Machine) timeline.Machine) (*timeline.Composition, error) {
	community, err := timeline.NewCNMachine(cn.ChurnConfig{Members: cnMembers, HeavyFrac: 0.2, CapacityFactor: 0.6, Seed: seed}, &cn.CPR{})
	if err != nil {
		return nil, err
	}
	parts := []timeline.Part{{Name: "routing", M: w.routing}, {Name: "community", M: community}}
	if wrap != nil {
		for i := range parts {
			parts[i].M = wrap(parts[i].Name, parts[i].M)
		}
	}
	return timeline.Compose(parts, []timeline.CascadeRule{{
		Name: "demand-cascade", From: "routing", Delay: 1,
		Fire: func(o timeline.Obs) []timeline.Event {
			scale := 1.0
			if share, _ := o.Value("reach-share"); share < surgeBelow {
				scale = surgeScale
			}
			return []timeline.Event{{Kind: timeline.KindCNDemand, Value: scale}}
		},
	}})
}

// replayDigest hashes every part's series and the cascade log.
func replayDigest(out *timeline.ComposedSeries) [sha256.Size]byte {
	h := sha256.New()
	for i, name := range out.Parts {
		fmt.Fprintf(h, "part %s\n", name)
		for _, row := range out.Series[i].Rows {
			for _, v := range row {
				fmt.Fprintf(h, "%s ", fbits(v))
			}
			fmt.Fprintln(h)
		}
	}
	for _, e := range out.Injected {
		fmt.Fprintf(h, "inject %d %s %s %s\n", e.At, e.Prov, e.Kind, fbits(e.Value))
	}
	fmt.Fprintf(h, "dropped %d\n", out.Dropped)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// timedMachine records an Apply and an Observe span per call into the
// machine it wraps, under the replay span named by parent.
type timedMachine struct {
	timeline.Machine
	apply, observe string
	tr             *tracer
	parent, req    *int64
}

func (m *timedMachine) Apply(ev timeline.Event) error {
	sp := m.tr.begin(m.apply, *m.parent, *m.req)
	defer sp.end()
	return m.Machine.Apply(ev)
}

func (m *timedMachine) Observe(tick int) ([]float64, error) {
	sp := m.tr.begin(m.observe, *m.parent, *m.req)
	defer sp.end()
	return m.Machine.Observe(tick)
}

// replay times composed replays of the merged stream. Between replays the
// BGP machine is unwound and the community machine and composition are
// rebuilt, outside the timed span.
func replay(ctx context.Context, r *run) error {
	workers := r.Load.Conns
	var w *replayWorld
	rounds, err := timeSetup(engineSetupRounds, func() (func() error, error) {
		built, err := buildReplay(ctx, r.Seed, workers, r.tr)
		if err != nil {
			return nil, err
		}
		if _, err := built.compose(r.Seed, nil); err != nil {
			return nil, err
		}
		w = built
		return nil, nil
	})
	if err != nil {
		return err
	}
	r.addSamples("setup_s", "s", rounds, "hierarchy build, BGP machine converge, stream generation and composition")

	refWorld, err := buildReplay(ctx, r.Seed, 1, nil)
	if err != nil {
		return err
	}
	refComp, err := refWorld.compose(r.Seed, nil)
	if err != nil {
		return err
	}
	refOut, err := refComp.ReplayCtx(ctx, refWorld.stream)
	if err != nil {
		return err
	}
	want := replayDigest(refOut)
	events := len(refWorld.stream.Events) + len(refOut.Injected)

	type replayPass struct {
		secs   []float64
		heapMB float64
	}
	pass := func(tag string, tr *tracer, dur time.Duration) (replayPass, error) {
		var p replayPass
		ph := phase{Name: "replay" + tag}
		var parent, req int64
		var wrap func(string, timeline.Machine) timeline.Machine
		if tr != nil {
			wrap = func(name string, m timeline.Machine) timeline.Machine {
				return &timedMachine{Machine: m, apply: "timeline.apply." + name, observe: "timeline.observe." + name,
					tr: tr, parent: &parent, req: &req}
			}
		}
		heap := sampleHeap()
		defer heap.Stop()
		for start := time.Now(); len(p.secs) == 0 || time.Since(start) < dur; {
			comp, err := w.compose(r.Seed, wrap)
			if err != nil {
				return p, err
			}
			req = tr.newID()
			t0 := time.Now()
			sp := tr.begin("timeline.replay", 0, req)
			parent = sp.id
			out, err := comp.ReplayCtx(ctx, w.stream)
			sp.end()
			p.secs = append(p.secs, time.Since(t0).Seconds())
			w.routing.Unwind()
			if err != nil {
				return p, err
			}
			ph.Sent++
			if replayDigest(out) != want {
				ph.Failed++
				r.problem("replay%s: series or cascade log differ from the workers = 1 reference", tag)
			} else {
				ph.Succeeded++
			}
		}
		p.heapMB = heap.Stop()
		r.addPhase(ph)
		return p, nil
	}

	full := time.Duration(r.Seconds) * time.Second
	if !r.Trace {
		p, err := pass("", nil, full)
		if err != nil {
			return err
		}
		r.addSamples("latency_ms", "ms", scale(p.secs, 1e3), "one composed replay of the whole stream")
		r.add("rate_per_s", "1/s", float64(events)/median(sorted(p.secs)),
			fmt.Sprintf("events_per_s: %d scripted plus injected events per replay", events))
		r.addHeap(p.heapMB, "median over the measured span's GC cycles of the live heap each found")
		return nil
	}
	base, err := pass("", nil, full/2)
	if err != nil {
		return err
	}
	rt := readRuntime()
	traced, err := pass("-traced", r.tr, full/2)
	if err != nil {
		return err
	}
	r.addRuntime(rt, events*len(traced.secs))
	r.addOverhead(1e3*median(sorted(base.secs)), 1e3*median(sorted(traced.secs)))
	if err := r.probeDeltas(w); err != nil {
		return err
	}
	lt := r.tr.selfTimes()
	for _, part := range []string{"routing", "community"} {
		for _, op := range []string{"apply", "observe"} {
			if l := lt["timeline."+op+"."+part]; l != nil {
				r.add("timeline."+op+"_us."+part, "us", l.perCall(time.Microsecond), fmt.Sprintf("Machine.%s, mean of %d calls", op, l.Calls))
			}
		}
	}
	if l := lt["timeline.replay"]; l != nil {
		r.add("timeline.replay_self_ms", "ms", l.perCall(time.Millisecond), "composition and cascade time outside the parts, per replay")
	}
	if l := lt["bgpsim.converge"]; l != nil {
		r.add("bgpsim.converge_ms", "ms", l.perCall(time.Millisecond), fmt.Sprintf("NewBGPMachine converge, mean of %d set-up rounds", l.Calls))
	}
	r.add("timeline.cascade_injected", "count", float64(len(refOut.Injected)), "events injected by the demand cascade per replay")
	r.add("timeline.cascade_dropped", "count", float64(refOut.Dropped), "injected events landing past the horizon per replay")
	r.bypass("serve.lru_hit_ratio", "serve.disk_hit_ratio", "serve.exec_ratio", "serve.exec_per_distinct",
		"serve.coalesced", "serve.shed", "serve.allocs_per_req", "serve.bytes_per_req", "bgpsim.sweep_rows")
	return nil
}

// probeDeltas applies the stream's BGP deltas, in replay order, straight
// to the unwound machine's converged state, one span per Converged.Apply,
// then reverts them newest first, one span per Revert, and checks that the
// state is restored.
func (r *run) probeDeltas(w *replayWorld) error {
	c := w.routing.State()
	before := c.StateFingerprint()
	var patches []*bgpsim.Patch
	cells := 0
	for _, e := range w.stream.Canonicalize().Events {
		if e.Kind != timeline.KindBGP {
			continue
		}
		sp := r.tr.begin("bgpsim.apply", 0, 0)
		p, err := c.Apply(e.Delta)
		sp.end()
		if err != nil {
			return fmt.Errorf("apply %s: %w", bgpsim.FormatDelta(e.Delta), err)
		}
		patches = append(patches, p)
		cells += p.Cells()
	}
	for i := len(patches) - 1; i >= 0; i-- {
		sp := r.tr.begin("bgpsim.revert", 0, 0)
		c.Revert(patches[i])
		sp.end()
	}
	if c.StateFingerprint() != before {
		r.problem("bgpsim: reverting every delta did not restore the converged state")
	}
	lt := r.tr.selfTimes()
	r.add("bgpsim.apply_us", "us", lt["bgpsim.apply"].perCall(time.Microsecond), fmt.Sprintf("Converged.Apply, mean of %d deltas", len(patches)))
	r.add("bgpsim.revert_us", "us", lt["bgpsim.revert"].perCall(time.Microsecond), "Converged.Revert, newest first")
	r.add("bgpsim.cells_per_delta", "count", float64(cells)/float64(len(patches)), "Patch.Cells per delta")
	return nil
}
