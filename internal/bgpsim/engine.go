package bgpsim

// The compiled routing engine behind ConvergeCtx and ConvergeStateCtx.
//
// The original fixpoint (kept as the test oracle convergeReference in
// reference_test.go) is a synchronous Bellman–Ford over
// map[ASN]map[string]*Route: every round it rebuilds every table,
// re-derives and re-sorts every neighbor list, and copies every candidate
// AS path. This engine computes the exact same fixpoint — bit-identical
// tables, paths, and reachability — from a compiled form of the topology:
//
//   - ASNs and prefixes are interned to dense indices once, at convergence
//     start, and the routing state is a flat column of entries per prefix
//     instead of nested maps.
//   - Neighbor adjacency is precompiled once per convergence: for every AS a
//     sorted slice of (neighbor index, learned relationship, exports-all)
//     edges replaces the per-AS-per-round map iteration + sort.
//   - AS paths are immutable cons cells in a per-column arena: a flat
//     []pathNode of (dense AS index, next index) pairs, with slot 0 as the
//     nil sentinel, so the live state holds no pointers for the collector to
//     scan. A candidate path is the routing AS consed onto the neighbor's
//     current path head — O(1), no slice copy — and comparisons
//     (lexicographic tie-break, loop check, change detection) walk the
//     index chain. Dense indices are assigned in ascending-ASN order, so
//     comparing indices is comparing ASNs. Because chain nodes are never
//     mutated after allocation, mid-convergence comparisons see exactly the
//     paths the reference engine would materialize. A column only ever conses onto
//     heads in the same column, so chains never cross columns, and each
//     column also counts its routed cells, which makes table-wide
//     reachability O(prefixes).
//   - Rounds are change-driven: only ASes with a neighbor whose selection
//     changed in the previous round are re-evaluated. An AS's selection
//     depends only on its neighbors' previous-round selections (and its own
//     origins), so skipping quiescent ASes cannot alter any round's table,
//     and the work queue drains in a deterministic order derived from the
//     changed set — never from map iteration or goroutine scheduling.
//   - Updates are batched and applied at the end of each round, preserving
//     the synchronous-round semantics of the reference engine (round r reads
//     only round r-1 state), including its 4·|AS|+16 safety cap on malformed
//     (cyclic provider graph) topologies.
//
// Prefix columns never interact, so ConvergeCtx fans independent
// prefixes across internal/parallel workers; each prefix's fixpoint is fully
// self-contained and writes only its own column — cells, arena and counter —
// so the result, arena layout included, is bit-identical for every worker
// count.

import (
	"context"
	"sort"
	"sync"

	"repro/internal/parallel"
)

// pathNode is one hop of an AS path stored as an immutable cons cell in its
// column's arena: the path of a route is its node's AS (a dense index)
// followed by the chain behind next, with the origin AS last (next == 0, the
// sentinel slot). Nodes are shared between the adopting AS and its
// neighbor's route, never mutated after allocation.
type pathNode struct {
	as   int32
	next uint32
}

// entry is one dense routing-table cell: the selected route of one AS for
// one prefix. head == 0 means no route; otherwise head indexes the full path
// (self first, origin last) in the column's arena and plen is its length.
type entry struct {
	head    uint32
	plen    int32
	learned Relationship
}

// column is the routing state of one prefix: the cell of every AS (dense
// index order), the path arena the cells' heads index into (slot 0 is the
// nil sentinel), and the number of cells holding a route. Every cell write
// goes through set, which keeps reach exact.
type column struct {
	cells []entry
	nodes []pathNode
	reach int
}

// newColumn returns an empty column over cells, with an arena holding only
// the sentinel and room for one node per AS.
func newColumn(cells []entry) column {
	return column{cells: cells, nodes: make([]pathNode, 1, len(cells)+1)}
}

// alloc appends a node to the arena and returns its index.
func (c *column) alloc(as int32, next uint32) uint32 {
	c.nodes = append(c.nodes, pathNode{as: as, next: next})
	return uint32(len(c.nodes) - 1)
}

// set writes cell i, keeping the routed-cell count in step.
func (c *column) set(i int32, e entry) {
	if had, has := c.cells[i].head != 0, e.head != 0; had != has {
		if has {
			c.reach++
		} else {
			c.reach--
		}
	}
	c.cells[i] = e
}

// contains reports whether AS index as appears anywhere in the chain.
func (c *column) contains(head uint32, as int32) bool {
	for ; head != 0; head = c.nodes[head].next {
		if c.nodes[head].as == as {
			return true
		}
	}
	return false
}

// equal reports whether two chains hold the same hops.
func (c *column) equal(a, b uint32) bool {
	for a != 0 && b != 0 {
		if a == b {
			return true // shared suffix: identical by construction
		}
		if c.nodes[a].as != c.nodes[b].as {
			return false
		}
		a, b = c.nodes[a].next, c.nodes[b].next
	}
	return a == b
}

// origin returns the AS index at the end of a non-empty chain.
func (c *column) origin(head uint32) int32 {
	for c.nodes[head].next != 0 {
		head = c.nodes[head].next
	}
	return c.nodes[head].as
}

// neighborEdge is one precompiled adjacency edge from the perspective of the
// owning AS.
type neighborEdge struct {
	idx int32        // dense index of the neighbor
	rel Relationship // how the owning AS marks routes learned from this neighbor
	// receiveAll: the neighbor exports everything to us — either we are its
	// customer, or it is flagged as a leaker. Otherwise valley-free export
	// applies (origin/customer routes only).
	receiveAll bool
}

// engine is the compiled form of a Topology. ConvergeCtx discards it
// with the run; ConvergeStateCtx keeps it alive (together with the interning
// maps and safety statistics below) so Apply can patch the compiled form
// in place and re-converge only the blast radius of a delta.
type engine struct {
	asns      []ASN
	idx       map[ASN]int32 // ASN -> dense index
	prefixes  []string
	pfxIdx    map[string]int32 // prefix -> column index
	nbr       [][]neighborEdge // per AS, sorted by neighbor index ascending
	origins   [][]int32        // per prefix, origin AS indices ascending (deduped)
	maxRounds int

	// Safety statistics for incremental re-convergence (see incremental.go):
	// when the effective provider→customer digraph is acyclic and at most one
	// AS violates valley-free export, Gao–Rexford guarantees a unique stable
	// state, so a frontier-seeded fixpoint from the old tables lands on the
	// same state a cold run would. Outside that regime Apply falls back to
	// cold per-column recomputation.
	c2pAcyclic bool
	leaky      []bool // per AS: violates valley-free export somewhere
	nLeaky     int
}

// compileEdges builds the sorted adjacency of n. Neighbor relationship
// resolution matches Neighbors(): when an ASN is recorded under several link
// sets, customer overrides provider and peer overrides both.
func compileEdges(t *Topology, idx map[ASN]int32, n ASN) []neighborEdge {
	rels := t.Neighbors(n)
	edges := make([]neighborEdge, 0, len(rels))
	for nb, rel := range rels {
		other := t.ases[nb]
		edges = append(edges, neighborEdge{
			idx:        idx[nb],
			rel:        rel,
			receiveAll: other.customers[n] || other.leaker,
		})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].idx < edges[b].idx })
	return edges
}

// leakyExporter reports whether a violates valley-free export toward some
// neighbor: a flagged leaker re-exports everything, and a customer edge
// overridden to peer still feeds the raw customer map into receiveAll while
// the effective relationship is lateral — the same kind of violation.
func leakyExporter(a *as) bool {
	if a.leaker {
		return true
	}
	for c := range a.customers {
		if a.peers[c] {
			return true
		}
	}
	return false
}

// computeC2PAcyclic reports whether the effective provider→customer digraph
// (post relationship-override resolution) is acyclic — the Gao–Rexford
// precondition for a unique routing fixpoint. Kahn's algorithm over the
// compiled adjacency.
func (e *engine) computeC2PAcyclic() bool {
	n := len(e.asns)
	indeg := make([]int32, n)
	for i := range e.nbr {
		for _, ed := range e.nbr[i] {
			if ed.rel == FromCustomer {
				indeg[ed.idx]++
			}
		}
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, ed := range e.nbr[i] {
			if ed.rel == FromCustomer {
				if indeg[ed.idx]--; indeg[ed.idx] == 0 {
					queue = append(queue, ed.idx)
				}
			}
		}
	}
	return done == n
}

// compile interns the topology into dense form.
func (t *Topology) compile() *engine {
	asns := t.ASNs()
	idx := make(map[ASN]int32, len(asns))
	for i, n := range asns {
		idx[n] = int32(i)
	}

	e := &engine{asns: asns, idx: idx, maxRounds: 4*len(asns) + 16}
	e.nbr = make([][]neighborEdge, len(asns))
	e.leaky = make([]bool, len(asns))
	for i, n := range asns {
		e.nbr[i] = compileEdges(t, idx, n)
		if leakyExporter(t.ases[n]) {
			e.leaky[i] = true
			e.nLeaky++
		}
	}
	e.c2pAcyclic = e.computeC2PAcyclic()

	pfxIdx := make(map[string]int32)
	for _, n := range asns {
		for _, p := range t.ases[n].origins {
			if _, ok := pfxIdx[p]; !ok {
				pfxIdx[p] = 0
				e.prefixes = append(e.prefixes, p)
			}
		}
	}
	sort.Strings(e.prefixes)
	for i, p := range e.prefixes {
		pfxIdx[p] = int32(i)
	}
	e.pfxIdx = pfxIdx
	e.origins = make([][]int32, len(e.prefixes))
	for i, n := range asns {
		for _, p := range t.ases[n].origins {
			pi := pfxIdx[p]
			lst := e.origins[pi]
			// ASes are visited in ascending index order, so the list stays
			// sorted; the tail check drops duplicate originations.
			if len(lst) == 0 || lst[len(lst)-1] != int32(i) {
				e.origins[pi] = append(lst, int32(i))
			}
		}
	}
	return e
}

// incrementalSafe reports whether frontier-seeded re-convergence from the
// current tables is guaranteed to reach the same fixpoint as a cold run:
// the classical Gao–Rexford uniqueness conditions — acyclic effective
// customer hierarchy and zero export violators. Even a single leaker
// admits multiple stable states (the leaked route and a loop-blocking
// alternative can each lock in the lexicographic tie at some AS depending
// on which arrived first), and then the state reached depends on the
// starting tables; property testing found exactly that divergence, so the
// bound is zero, not one.
func (e *engine) incrementalSafe() bool {
	return e.c2pAcyclic && e.nLeaky == 0
}

func (e *engine) originates(p int, i int32) bool {
	for _, o := range e.origins[p] {
		if o == i {
			return true
		}
		if o > i {
			return false
		}
	}
	return false
}

// colUpdate is a pending synchronous-round write: entry e lands at AS idx
// once the whole round has been evaluated against the previous round's
// column.
type colUpdate struct {
	idx int32
	e   entry
}

// convState is the reusable per-worker scratch of a prefix fixpoint. Path
// nodes live in the columns themselves, so the scratch holds only the work
// queue and the pending round batch.
type convState struct {
	inQueue []bool
	queue   []int32
	changed []int32
	updates []colUpdate
}

// convergePrefix runs the change-driven fixpoint for prefix p, writing the
// final cells (one entry per AS, dense index order) into col. col's cells
// must be zeroed on entry.
func (e *engine) convergePrefix(p int, col *column, st *convState) {
	// Round 0 of the reference engine sees only empty tables, so exactly the
	// origin ASes obtain a route. Seed those and mark them changed.
	st.changed = st.changed[:0]
	for _, o := range e.origins[p] {
		col.set(o, entry{head: col.alloc(o, 0), plen: 1, learned: Origin})
		st.changed = append(st.changed, o)
	}
	for round := 1; round < e.maxRounds && len(st.changed) > 0; round++ {
		// Queue exactly the ASes whose inputs changed last round: the
		// neighbors of every changed AS. The queue order is a deterministic
		// function of the changed set; evaluation order cannot affect the
		// outcome because all reads hit the previous round's column.
		st.queue = st.queue[:0]
		for _, c := range st.changed {
			for _, ed := range e.nbr[c] {
				if !st.inQueue[ed.idx] {
					st.inQueue[ed.idx] = true
					st.queue = append(st.queue, ed.idx)
				}
			}
		}
		st.updates = st.updates[:0]
		for _, i := range st.queue {
			st.inQueue[i] = false
			if ne, changed := e.selectBest(i, p, col); changed {
				st.updates = append(st.updates, colUpdate{idx: i, e: ne})
			}
		}
		// Apply the batch: the round was fully evaluated against round-1
		// state, matching the reference engine's synchronous semantics.
		st.changed = st.changed[:0]
		for _, u := range st.updates {
			col.set(u.idx, u.e)
			st.changed = append(st.changed, u.idx)
		}
	}
}

// undoCell records one overwritten table cell so Converged.Revert can
// restore the exact pre-Apply cell without re-converging.
type undoCell struct {
	idx int32
	e   entry
}

// reconvergeColumn continues the synchronous fixpoint for prefix p from the
// current column state, evaluating exactly the seed ASes in the first round
// (the frontier whose inputs the delta changed) and then draining the usual
// change-driven queue. Every overwritten cell's previous value is appended
// to *log, oldest first. Returns false when the round cap was hit before
// quiescence — the caller must then recompute the column cold, which keeps
// malformed (non-converging) topologies bit-identical to the cold oracle.
func (e *engine) reconvergeColumn(p int, col *column, st *convState, seeds []int32, log *[]undoCell) bool {
	st.updates = st.updates[:0]
	for _, i := range seeds {
		if ne, changed := e.selectBest(i, p, col); changed {
			st.updates = append(st.updates, colUpdate{idx: i, e: ne})
		}
	}
	for round := 1; round < e.maxRounds; round++ {
		if len(st.updates) == 0 {
			return true
		}
		// Apply the batch, logging prior values for revert, then queue the
		// neighbors of everything that changed — same synchronous-round
		// semantics as convergePrefix, just seeded from mid-flight state.
		st.changed = st.changed[:0]
		for _, u := range st.updates {
			*log = append(*log, undoCell{idx: u.idx, e: col.cells[u.idx]})
			col.set(u.idx, u.e)
			st.changed = append(st.changed, u.idx)
		}
		st.queue = st.queue[:0]
		for _, c := range st.changed {
			for _, ed := range e.nbr[c] {
				if !st.inQueue[ed.idx] {
					st.inQueue[ed.idx] = true
					st.queue = append(st.queue, ed.idx)
				}
			}
		}
		st.updates = st.updates[:0]
		for _, i := range st.queue {
			st.inQueue[i] = false
			if ne, changed := e.selectBest(i, p, col); changed {
				st.updates = append(st.updates, colUpdate{idx: i, e: ne})
			}
		}
	}
	return len(st.updates) == 0
}

// coldColumn recomputes column p from scratch, first logging every cell —
// empty ones included, since the recompute may fill them and the caller's
// undo log must restore the exact pre-Apply state — and zeroing the cells.
// The recompute appends fresh nodes to the arena; the old ones stay intact
// for the logged cells until Revert truncates the arena. Used when
// incremental re-convergence is not trusted (unsafe topology before or
// after the delta) or gave up (round cap).
func (e *engine) coldColumn(p int, col *column, st *convState, log *[]undoCell) {
	for i := range col.cells {
		*log = append(*log, undoCell{idx: int32(i), e: col.cells[i]})
		col.cells[i] = entry{}
	}
	col.reach = 0
	e.convergePrefix(p, col, st)
}

// selectBest recomputes AS i's selection for prefix p from the current
// column and reports whether it differs from the incumbent entry. A best
// candidate is tracked as (relationship, length, tail) where the full path
// is self consed onto tail; the origin candidate has the sentinel tail 0. A
// node is allocated only when the selection actually changed.
func (e *engine) selectBest(i int32, p int, col *column) (entry, bool) {
	var bestRel Relationship
	var bestLen int32
	var bestTail uint32
	has := false
	if e.originates(p, i) {
		bestRel, bestLen, bestTail, has = Origin, 1, 0, true
	}
	cells := col.cells
	for _, ed := range e.nbr[i] {
		ne := &cells[ed.idx]
		if ne.head == 0 {
			continue
		}
		// Export policy from the neighbor's side: we receive everything if
		// we are its customer or it leaks; otherwise only origin/customer
		// routes (valley-free).
		if !ed.receiveAll && ne.learned != Origin && ne.learned != FromCustomer {
			continue
		}
		// Loop prevention: reject paths already containing us.
		if col.contains(ne.head, i) {
			continue
		}
		candLen := ne.plen + 1
		if has && !col.candBetter(ed.rel, candLen, ne.head, bestRel, bestLen, bestTail) {
			continue
		}
		bestRel, bestLen, bestTail, has = ed.rel, candLen, ne.head, true
	}
	old := &cells[i]
	if !has {
		return entry{}, old.head != 0
	}
	if old.head != 0 && old.learned == bestRel && old.plen == bestLen &&
		col.equal(col.nodes[old.head].next, bestTail) {
		return *old, false
	}
	return entry{head: col.alloc(i, bestTail), plen: bestLen, learned: bestRel}, true
}

// candBetter reports whether candidate a should replace incumbent b under
// the standard decision order — higher local pref, then shorter path, then
// lexicographically smaller path — mirroring better() in reference_test.go.
// Both paths start with the same AS (self), so only the tails are compared;
// dense indices ascend with ASN, so comparing hop indices compares ASNs.
func (c *column) candBetter(aRel Relationship, aLen int32, aTail uint32, bRel Relationship, bLen int32, bTail uint32) bool {
	if aRel != bRel {
		return aRel > bRel
	}
	if aLen != bLen {
		return aLen < bLen
	}
	for aTail != 0 && bTail != 0 {
		if c.nodes[aTail].as != c.nodes[bTail].as {
			return c.nodes[aTail].as < c.nodes[bTail].as
		}
		aTail, bTail = c.nodes[aTail].next, c.nodes[bTail].next
	}
	return false
}

// ConvergeCtx computes the Gao–Rexford routing fixpoint and returns the
// resulting tables. Each (logical) round, an AS recomputes its best route
// per prefix from its neighbors' previous-round selections — synchronous
// Bellman–Ford over policies — but only ASes whose neighborhood actually
// changed are re-evaluated, and prefixes converge independently over flat
// interned tables (see the package comment of engine.go). The result is
// bit-identical to the original whole-topology loop, which survives as
// the test oracle convergeReference.
//
// Valley-free export: a neighbor's route is a candidate only if that
// neighbor originated it or learned it from a customer, unless we are the
// neighbor's customer (customers receive everything).
//
// Gao–Rexford guarantees convergence when the provider–customer graph is
// acyclic; a safety cap of 4·|AS|+16 rounds guards malformed topologies.
//
// The independent per-prefix fixpoints fan out across at most workers
// goroutines (workers <= 0 means GOMAXPROCS; 1 runs serially on the calling
// goroutine). Every prefix's column is self-contained — its cells, path
// arena and reach counter are written only by its own fixpoint — so the
// result is bit-identical for every worker count. When many scenarios
// already run in parallel (the sweep entry points), pass 1 to avoid
// oversubscription. ctx is checked between prefix columns; on
// cancellation the partially-converged tables are discarded and ctx.Err()
// is returned.
func (t *Topology) ConvergeCtx(ctx context.Context, workers int) (*RoutingTables, error) {
	e := t.compile()
	rt := newRoutingTables(e.asns, e.prefixes)
	if err := e.convergeAllCtx(ctx, rt, workers); err != nil {
		return nil, err
	}
	return rt, nil
}

// serialWorkFloor is the table-cell count (prefixes × ASes) below which the
// fork-join machinery costs more than it saves and convergeAllCtx runs the
// columns serially on the calling goroutine regardless of the worker knob.
const serialWorkFloor = 1 << 15

// convergeChunks splits nP prefix columns into coarse contiguous chunks,
// about four per worker, so each parallel task amortizes its dispatch and
// scratch-state checkout over many columns instead of paying them per
// prefix. Returns the chunk size.
func convergeChunks(nP, workers int) int {
	chunk := (nP + 4*workers - 1) / (4 * workers)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// convergeAllCtx runs the cold fixpoint for every column of rt. Columns are
// independent, so the fan-out chunks them coarsely across workers; below
// serialWorkFloor cells (or with one effective worker) it skips the
// parallel machinery entirely. ctx is checked between prefix columns. On a
// cancelled context the tables are left partially converged and ctx.Err()
// is returned — callers must discard them (cold convergence builds fresh
// tables, so there is no state to corrupt).
func (e *engine) convergeAllCtx(ctx context.Context, rt *RoutingTables, workers int) error {
	nAS, nP := len(e.asns), len(e.prefixes)
	if nAS == 0 || nP == 0 {
		return nil
	}
	w := parallel.Workers(workers, nP)
	if w == 1 || nAS*nP < serialWorkFloor {
		st := &convState{inQueue: make([]bool, nAS)}
		for p := 0; p < nP; p++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.convergePrefix(p, &rt.cols[p], st)
		}
		return nil
	}
	chunk := convergeChunks(nP, w)
	nChunks := (nP + chunk - 1) / chunk
	pool := sync.Pool{New: func() any {
		return &convState{inQueue: make([]bool, nAS)}
	}}
	return parallel.ForEach(ctx, nChunks, w, func(ci int) error {
		st := pool.Get().(*convState)
		hi := (ci + 1) * chunk
		if hi > nP {
			hi = nP
		}
		for p := ci * chunk; p < hi; p++ {
			e.convergePrefix(p, &rt.cols[p], st)
		}
		pool.Put(st)
		return nil
	})
}
