package bgpsim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Hierarchy describes a generated Internet-like topology.
type Hierarchy struct {
	Topo  *Topology
	Tier1 []ASN
	Hubs  []ASN // regional concentrators; empty for the classic three-tier shape
	Mids  []ASN
	Stubs []ASN
	// OriginStubs lists the stubs that originate a prefix ("pfx-<asn>"), in
	// ascending order. Equal to Stubs unless HierarchyOpts.OriginEvery thins
	// the prefix table for large-scale runs.
	OriginStubs []ASN
}

// HierarchyOpts parameterizes BuildHierarchyOpts. The zero value of every
// knob reproduces the classic BuildHierarchy shape exactly (same ASNs, same
// RNG draw sequence), so existing seeds keep their topologies.
type HierarchyOpts struct {
	NMid  int
	NStub int
	// Hubs > 0 inserts a route-reflector-flavoured tier between the tier-1
	// clique and the mids: Hubs regional concentrator ASes, each dual-homed
	// to tier-1 providers and peered in a ring (the reflector mesh), with the
	// mids homed to hubs instead of tier-1s (the client sessions). The shape
	// keeps path diversity per mid while cutting the tier-1 fan-out, which is
	// what makes 100k-AS tables tractable.
	Hubs int
	// OriginEvery k > 1 makes only every k-th stub originate a prefix, so the
	// prefix-column count — the dominant table dimension — scales sublinearly
	// with AS count. 0 or 1 means every stub originates.
	OriginEvery int
}

// BuildHierarchy generates a random three-tier Internet: a tier-1 clique of
// peers, a middle tier with one or two tier-1 providers and some lateral
// peering, and stubs with one or two mid providers. Every stub originates a
// /16-style prefix named "pfx-<asn>".
func BuildHierarchy(r *rng.Rand, nMid, nStub int) (*Hierarchy, error) {
	return BuildHierarchyOpts(r, HierarchyOpts{NMid: nMid, NStub: nStub})
}

// BuildHierarchyOpts is BuildHierarchy with the scale knobs exposed. With
// o.Hubs == 0 and o.OriginEvery <= 1 it draws exactly the same RNG sequence
// and assigns the same ASNs as the classic generator (for nMid <= 900),
// so seeded experiment topologies are stable across the two entry points.
func BuildHierarchyOpts(r *rng.Rand, o HierarchyOpts) (*Hierarchy, error) {
	if o.NStub > 0 && o.NMid <= 0 {
		return nil, fmt.Errorf("bgpsim: hierarchy needs mids to home %d stubs", o.NStub)
	}
	if o.Hubs < 0 || o.Hubs > 90 {
		return nil, fmt.Errorf("bgpsim: hub count %d outside [0, 90]", o.Hubs)
	}
	h := &Hierarchy{Topo: NewTopology()}
	h.Tier1 = []ASN{1, 2, 3}
	for _, n := range h.Tier1 {
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Tier1-%d", n)}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < len(h.Tier1); i++ {
		for j := i + 1; j < len(h.Tier1); j++ {
			if err := h.Topo.AddPeer(h.Tier1[i], h.Tier1[j]); err != nil {
				return nil, err
			}
		}
	}
	// Hub tier (route-reflector flavour): ASNs 10..99, dual-homed upward,
	// ring-peered sideways. midHomes is whatever tier the mids attach to.
	midHomes := h.Tier1
	for i := 0; i < o.Hubs; i++ {
		n := ASN(10 + i)
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Hub-%d", n)}); err != nil {
			return nil, err
		}
		h.Hubs = append(h.Hubs, n)
		if err := h.Topo.AddProviderCustomer(h.Tier1[r.Intn(len(h.Tier1))], n); err != nil {
			return nil, err
		}
		// Second upstream; a duplicate pick is harmless (idempotent sets).
		_ = h.Topo.AddProviderCustomer(h.Tier1[r.Intn(len(h.Tier1))], n)
	}
	for i := 0; i < len(h.Hubs); i++ {
		if j := (i + 1) % len(h.Hubs); j != i {
			if err := h.Topo.AddPeer(h.Hubs[i], h.Hubs[j]); err != nil && !h.Topo.HasPeer(h.Hubs[i], h.Hubs[j]) {
				return nil, err
			}
		}
	}
	if len(h.Hubs) > 0 {
		midHomes = h.Hubs
	}
	for i := 0; i < o.NMid; i++ {
		n := ASN(100 + i)
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Mid-%d", n)}); err != nil {
			return nil, err
		}
		h.Mids = append(h.Mids, n)
		if err := h.Topo.AddProviderCustomer(midHomes[r.Intn(len(midHomes))], n); err != nil {
			return nil, err
		}
		if r.Bool(0.5) {
			// Multihoming; a duplicate pick is harmless (idempotent sets).
			_ = h.Topo.AddProviderCustomer(midHomes[r.Intn(len(midHomes))], n)
		}
	}
	for i := 0; i+1 < len(h.Mids); i += 2 {
		if r.Bool(0.6) {
			if err := h.Topo.AddPeer(h.Mids[i], h.Mids[i+1]); err != nil {
				return nil, err
			}
		}
	}
	// Classic layout puts stubs at 1000+; past 900 mids that range is taken,
	// so large-scale shapes start stubs right after the mid block instead.
	stubBase := 1000
	if 100+o.NMid > stubBase {
		stubBase = 100 + o.NMid
	}
	every := o.OriginEvery
	if every < 1 {
		every = 1
	}
	for i := 0; i < o.NStub; i++ {
		n := ASN(stubBase + i)
		if err := h.Topo.AddAS(n, ASInfo{Name: fmt.Sprintf("Stub-%d", n)}); err != nil {
			return nil, err
		}
		h.Stubs = append(h.Stubs, n)
		if err := h.Topo.AddProviderCustomer(h.Mids[r.Intn(len(h.Mids))], n); err != nil {
			return nil, err
		}
		if r.Bool(0.3) {
			_ = h.Topo.AddProviderCustomer(h.Mids[r.Intn(len(h.Mids))], n)
		}
		if i%every == 0 {
			if err := h.Topo.Originate(n, fmt.Sprintf("pfx-%d", n)); err != nil {
				return nil, err
			}
			h.OriginStubs = append(h.OriginStubs, n)
		}
	}
	return h, nil
}

// LeakRow is one measured point of the E14 leak experiment.
type LeakRow struct {
	LeakerKind    string // "stub" or "mid"
	LeakerASN     ASN
	Providers     int
	Affected      int
	AffectedShare float64 // affected / reachable ASes
}

// RunLeakSweepCtx builds a hierarchy of shape o, then measures the blast
// radius of a leak by a representative stub and by each mid-tier AS, in that
// order, against a victim prefix drawn from the originating stubs. The base
// converges once (workers as in ConvergeCtx; rows are bit-identical for
// every count); each leaker is an incremental toggle applied and reverted
// against it. ctx is checked during the base convergence and between
// leakers. Zero-valued Hubs and OriginEvery reproduce the classic
// BuildHierarchy topology and victim draw.
func RunLeakSweepCtx(ctx context.Context, o HierarchyOpts, seed uint64, workers int) ([]LeakRow, error) {
	r := rng.New(seed)
	h, err := BuildHierarchyOpts(r.Split(), o)
	if err != nil {
		return nil, err
	}
	if len(h.OriginStubs) == 0 {
		return nil, fmt.Errorf("bgpsim: leak sweep needs at least one originating stub")
	}
	victim := h.OriginStubs[r.Intn(len(h.OriginStubs))]
	return leakSweepRows(ctx, h, victim, workers)
}

// RunLeakSweepOpts is RunLeakSweepCtx under a background context. Its only
// caller is the benchmark module in _perfbench, which pins this signature.
func RunLeakSweepOpts(o HierarchyOpts, seed uint64, workers int) ([]LeakRow, error) {
	return RunLeakSweepCtx(context.Background(), o, seed, workers)
}

// leakSweepRows converges the base once and measures each leaker as an
// incremental toggle scoped to the one column BlastRadius reads: a leaker
// voids the unique-fixpoint guarantee, so the victim column is recomputed
// cold (bit-identical to the full-converge oracle), every other column is
// untouched, and Revert restores the base state from the undo log.
func leakSweepRows(ctx context.Context, h *Hierarchy, victim ASN, workers int) ([]LeakRow, error) {
	prefix := fmt.Sprintf("pfx-%d", victim)
	c, err := h.Topo.ConvergeStateCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	scope := []int32{c.rt.pfxIdx[prefix]}
	return sweepRows(ctx, h, victim, func(kind string, leaker ASN) (LeakRow, error) {
		//humnet:allow ctxflow -- scoped apply+revert must run to completion or the undo log is left inconsistent; ctx is honoured between sweep events
		p, err := c.applyScoped(Delta{Kind: DeltaLeakToggle, A: leaker}, scope)
		if err != nil {
			return LeakRow{}, err
		}
		affected, reachable := BlastRadius(c.Tables(), leaker, prefix)
		c.Revert(p)
		row := LeakRow{
			LeakerKind: kind,
			LeakerASN:  leaker,
			Providers:  len(providersOf(h.Topo, leaker)),
			Affected:   len(affected),
		}
		if reachable > 0 {
			row.AffectedShare = float64(row.Affected) / float64(reachable)
		}
		return row, nil
	})
}

// sweepRows measures, in row order, one representative stub that is not the
// victim and then every mid ascending — the rows both sweeps report. ctx is
// checked before each measurement; a started one (an apply+revert pair)
// runs to completion to keep the undo log consistent.
func sweepRows[R any](ctx context.Context, h *Hierarchy, victim ASN, measure func(kind string, n ASN) (R, error)) ([]R, error) {
	var rows []R
	add := func(kind string, n ASN) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		row, err := measure(kind, n)
		rows = append(rows, row)
		return err
	}
	for _, s := range h.Stubs {
		if s != victim {
			if err := add("stub", s); err != nil {
				return nil, err
			}
			break
		}
	}
	for _, m := range h.Mids {
		if err := add("mid", m); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func providersOf(t *Topology, n ASN) []ASN {
	var out []ASN
	for nb, rel := range t.Neighbors(n) {
		if rel == FromProvider {
			out = append(out, nb)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HijackRow is one measured point of the E16 prefix-hijack experiment.
type HijackRow struct {
	AttackerKind  string // "stub" or "mid"
	AttackerASN   ASN
	Captured      int     // ASes whose best route leads to the attacker
	CapturedShare float64 // captured / ASes with any route (excluding both principals)
}

// RunHijackSweepCtx measures exact-prefix (MOAS) hijacks over a hierarchy
// of shape o: the attacker originates the victim's prefix, and every AS
// picks whichever origin its policies prefer. Like leaks, the blast radius
// is economic: an attacker close to many customers captures more of the
// network. One representative stub and every mid-tier AS attack in turn;
// each attack is an incremental announce applied and reverted against the
// once-converged base. workers, ctx and the victim draw behave as in
// RunLeakSweepCtx.
func RunHijackSweepCtx(ctx context.Context, o HierarchyOpts, seed uint64, workers int) ([]HijackRow, error) {
	r := rng.New(seed)
	h, err := BuildHierarchyOpts(r.Split(), o)
	if err != nil {
		return nil, err
	}
	if len(h.OriginStubs) == 0 {
		return nil, fmt.Errorf("bgpsim: hijack sweep needs at least one originating stub")
	}
	victim := h.OriginStubs[r.Intn(len(h.OriginStubs))]
	return hijackSweepRows(ctx, h, victim, workers)
}

// RunHijackSweepOpts is RunHijackSweepCtx under a background context. Its
// only caller is the benchmark module in _perfbench, which pins this
// signature.
func RunHijackSweepOpts(o HierarchyOpts, seed uint64, workers int) ([]HijackRow, error) {
	return RunHijackSweepCtx(context.Background(), o, seed, workers)
}

// hijackSweepRows converges the base once and measures each attacker as an
// incremental announce of the victim's prefix, reverted after measuring.
// Captures are counted straight off the prefix column: the last hop of a
// cell's chain is the origin its route leads to.
func hijackSweepRows(ctx context.Context, h *Hierarchy, victim ASN, workers int) ([]HijackRow, error) {
	prefix := fmt.Sprintf("pfx-%d", victim)
	c, err := h.Topo.ConvergeStateCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	vi := c.rt.asIdx[victim]
	return sweepRows(ctx, h, victim, func(kind string, attacker ASN) (HijackRow, error) {
		//humnet:allow ctxflow -- announce+revert must run to completion or the undo log is left inconsistent; ctx is honoured between sweep events
		p, err := c.Apply(Delta{Kind: DeltaAnnounce, A: attacker, Prefix: prefix})
		if err != nil {
			return HijackRow{}, err
		}
		ai := c.rt.asIdx[attacker]
		col := &c.rt.cols[c.rt.pfxIdx[prefix]]
		row := HijackRow{AttackerKind: kind, AttackerASN: attacker}
		total := 0
		for i, en := range col.cells {
			if int32(i) == vi || int32(i) == ai || en.head == 0 {
				continue
			}
			total++
			if col.origin(en.head) == ai {
				row.Captured++
			}
		}
		if total > 0 {
			row.CapturedShare = float64(row.Captured) / float64(total)
		}
		c.Revert(p)
		return row, nil
	})
}
