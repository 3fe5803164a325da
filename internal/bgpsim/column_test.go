package bgpsim

import (
	"fmt"
	"testing"

	"repro/internal/proptest"
	"repro/internal/rng"
)

// Invariants of the per-column routing state: every column's reach counter
// equals a scan of its cells after every Apply and Revert, Revert restores
// cells and arena lengths index-exactly, and StateFingerprint depends only
// on that state — not on addresses, worker counts or the process.

// gadgetTopo is a provider cycle (11→12→13→11) under a common provider 10,
// with the cycle members leaking: each prefers the route through its
// customer over the direct one, so the synchronous fixpoint oscillates and
// every column touching it is computed up to the round cap.
const gadgetTopo = `as 10
as 11
as 12
as 13
p2c 10 11
p2c 10 12
p2c 10 13
p2c 11 12
p2c 12 13
p2c 13 11
leaker 11
leaker 12
leaker 13
origin 10 pfx-gadget
`

// reachMatchesScan checks every column's reach counter, and the table-wide
// ReachableCells, against a full scan of the cells.
func reachMatchesScan(rt *RoutingTables) error {
	want := 0
	for p := range rt.cols {
		n := 0
		for _, en := range rt.cols[p].cells {
			if en.head != 0 {
				n++
			}
		}
		if n != rt.cols[p].reach {
			return fmt.Errorf("column %d (%s): reach counter %d, scan %d", p, rt.prefixes[p], rt.cols[p].reach, n)
		}
		want += n
	}
	got, total := rt.ReachableCells()
	if got != want || total != len(rt.asns)*len(rt.prefixes) {
		return fmt.Errorf("ReachableCells = (%d, %d), scan (%d, %d)", got, total, want, len(rt.asns)*len(rt.prefixes))
	}
	return nil
}

// addGadget wires gadgetTopo's oscillating provider cycle under tier-1 AS 1
// of a spec topology, which makes the whole topology unsafe: every apply
// then recomputes its columns cold, and the gadget's column hits the round
// cap on every recompute.
func addGadget(topo *Topology) error {
	g, err := ParseTopologyString(gadgetTopo)
	if err != nil {
		return err
	}
	for _, n := range g.ASNs() {
		if err := topo.AddAS(n, ASInfo{}); err != nil {
			return err
		}
	}
	for _, n := range g.ASNs() {
		for nb, rel := range g.Neighbors(n) {
			if rel == FromCustomer {
				if err := topo.AddProviderCustomer(n, nb); err != nil {
					return err
				}
			}
		}
		for _, p := range g.Origins(n) {
			if err := topo.Originate(n, p); err != nil {
				return err
			}
		}
		if g.IsLeaker(n) {
			topo.MarkLeaker(n)
		}
	}
	return topo.AddProviderCustomer(1, 10)
}

// TestPropReachCountersAndArenas drives random delta sequences — link
// flaps, withdraws and announces (brand-new prefixes included), leak
// toggles (the cold fallback), some over a topology carrying an oscillating
// provider cycle (the round-cap fallback) — interleaving applies and
// reverts. After every step the reach counters must match a scan; after the
// full unwind every column's cells, arena and counter must equal the
// pre-sequence snapshot.
func TestPropReachCountersAndArenas(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			proptest.Run(t, 313+uint64(w), 40, func(g *proptest.G) error {
				spec := g.ASHierarchy(5, 6)
				topo, _, mids, stubs, err := buildSpecTopology(spec)
				if err != nil {
					return fmt.Errorf("building topology: %w", err)
				}
				if g.Bool(0.3) {
					if err := addGadget(topo); err != nil {
						return fmt.Errorf("adding provider cycle: %w", err)
					}
				}
				c := mustConvergeState(topo, w)
				if err := reachMatchesScan(c.Tables()); err != nil {
					return fmt.Errorf("after converge: %w", err)
				}
				base := snapshotColumns(c.Tables())
				var stack []*Patch
				extra := 0
				steps := g.IntRange(4, 12)
				for s := 0; s < steps; s++ {
					if len(stack) > 0 && g.Bool(0.3) {
						c.Revert(stack[len(stack)-1])
						stack = stack[:len(stack)-1]
						if err := reachMatchesScan(c.Tables()); err != nil {
							return fmt.Errorf("step %d: after Revert: %w", s, err)
						}
						continue
					}
					d, ok := randomDelta(g, c, mids, stubs, &extra)
					if !ok {
						continue
					}
					p, err := c.Apply(d)
					if err != nil {
						return fmt.Errorf("step %d: Apply(%+v): %w", s, d, err)
					}
					stack = append(stack, p)
					if err := reachMatchesScan(c.Tables()); err != nil {
						return fmt.Errorf("step %d: after Apply(%+v): %w", s, d, err)
					}
				}
				for len(stack) > 0 {
					c.Revert(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
					if err := reachMatchesScan(c.Tables()); err != nil {
						return fmt.Errorf("unwind: %w", err)
					}
				}
				if err := columnsRestored(c.Tables(), base); err != nil {
					return fmt.Errorf("after full unwind: %w", err)
				}
				return nil
			})
		})
	}
}

// TestStateFingerprintPortable: the fingerprint hashes arena indices, not
// addresses, so states converged at different worker counts, or built
// independently from one topology description, fingerprint equal — and stay
// equal through the same Apply (warm link flap, cold leak toggle) and its
// Revert. The topology is large enough that workers 2 and 8 take the
// parallel path in both convergence and re-convergence.
func TestStateFingerprintPortable(t *testing.T) {
	build := func() *Hierarchy {
		h, err := BuildHierarchy(rng.New(51), 40, 200)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := build()
	states := []*Converged{
		mustConvergeState(h.Topo, 1),
		mustConvergeState(h.Topo.Clone(), 2),
		mustConvergeState(h.Topo.Clone(), 8),
		mustConvergeState(build().Topo, 1), // built independently
	}
	if ases, prefixes := states[0].Tables().Size(); ases*prefixes < serialWorkFloor {
		t.Fatalf("%d×%d cells stay below the parallel floor", ases, prefixes)
	}
	base := states[0].StateFingerprint()
	for i, c := range states {
		if got := c.StateFingerprint(); got != base {
			t.Errorf("state %d: fingerprint %#x, want %#x", i, got, base)
		}
	}
	mid := h.Mids[0]
	deltas := []Delta{
		{Kind: DeltaLinkDown, A: providersOf(h.Topo, mid)[0], B: mid},
		{Kind: DeltaLeakToggle, A: mid},
	}
	for _, d := range deltas {
		var want uint64
		for i, c := range states {
			p, err := c.Apply(d)
			if err != nil {
				t.Fatalf("state %d: Apply(%+v): %v", i, d, err)
			}
			got := c.StateFingerprint()
			if i == 0 {
				want = got
				if want == base {
					t.Errorf("%v: fingerprint unchanged by the apply", d.Kind)
				}
			} else if got != want {
				t.Errorf("state %d after %v: fingerprint %#x, want %#x", i, d.Kind, got, want)
			}
			c.Revert(p)
			if got := c.StateFingerprint(); got != base {
				t.Errorf("state %d after reverting %v: fingerprint %#x, want %#x", i, d.Kind, got, base)
			}
		}
	}
}

// fuzzDelta decodes three fuzz bytes into a delta over the given ASes and
// prefix pool. It may be inapplicable; Apply must then reject it cleanly.
func fuzzDelta(op, x, y byte, asns []ASN, pool []string) Delta {
	return Delta{
		Kind:   DeltaKind(op % 5),
		A:      asns[int(x)%len(asns)],
		B:      asns[int(y)%len(asns)],
		Prefix: pool[int(y)%len(pool)],
		Peer:   op&0x10 != 0,
	}
}

// FuzzApplyRevert parses a small topology and drives a byte-coded sequence
// of applies and reverts against its converged state. Every step must keep
// the reach counters equal to a scan and the tables equal to a cold
// convergence; a rejected delta must leave the state untouched; and the
// final unwind must restore the initial StateFingerprint.
func FuzzApplyRevert(f *testing.F) {
	f.Add(sampleTopo, []byte{0, 3, 0, 1, 1, 9, 2, 0, 3, 0xff, 0, 0, 4, 2, 0, 3, 0, 3})
	f.Add(gadgetTopo, []byte{4, 0, 0, 3, 1, 2, 1, 2, 1, 0xff, 0, 0, 0, 0, 0})
	f.Add("as 1\nas 2\nas 3\np2c 1 2\np2c 1 3\norigin 3 q\norigin 2 q\n", []byte{2, 1, 2, 0x12, 1, 2, 1, 0, 5, 4, 0, 0})
	f.Fuzz(func(t *testing.T, text string, ops []byte) {
		if len(text) > 1024 || len(ops) > 96 {
			return // bound convergence cost, not coverage
		}
		topo, err := ParseTopologyString(text)
		if err != nil {
			return
		}
		asns := topo.ASNs()
		if len(asns) == 0 || len(asns) > 24 {
			return
		}
		c := mustConvergeState(topo, 1)
		pool := append(append([]string(nil), c.rt.prefixes...), "fz-new")
		initial := c.StateFingerprint()
		var stack []*Patch
		for i := 0; i+2 < len(ops); i += 3 {
			if ops[i] == 0xff && len(stack) > 0 {
				c.Revert(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			} else {
				d := fuzzDelta(ops[i], ops[i+1], ops[i+2], asns, pool)
				before := c.StateFingerprint()
				p, err := c.Apply(d)
				if err != nil {
					if c.StateFingerprint() != before {
						t.Fatalf("rejected %+v changed the state", d)
					}
					continue
				}
				stack = append(stack, p)
			}
			if err := reachMatchesScan(c.Tables()); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			if err := tablesEqualCold(c); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
		for len(stack) > 0 {
			c.Revert(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		if err := reachMatchesScan(c.Tables()); err != nil {
			t.Fatalf("after unwind: %v", err)
		}
		if got := c.StateFingerprint(); got != initial {
			t.Fatalf("unwind left fingerprint %#x, want %#x", got, initial)
		}
	})
}
