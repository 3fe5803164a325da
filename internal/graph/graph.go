// Package graph implements the weighted graph algorithms that back both the
// coauthorship analyses in internal/biblio and the network topologies in
// internal/bgpsim and internal/cn: traversal, shortest paths, connected
// components, centrality measures, and community detection.
//
// Nodes are dense integer IDs in [0, N). Callers that work with external
// identifiers keep their own mapping; this keeps the algorithms allocation-
// light and cache-friendly.
package graph

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Edge is a weighted connection between two nodes. In an undirected graph an
// edge is stored on both endpoints' adjacency lists.
type Edge struct {
	To     int
	Weight float64
}

// Graph is an adjacency-list graph. The zero value is an empty graph; use
// New to preallocate nodes. Directed controls whether AddEdge inserts the
// reverse arc as well.
type Graph struct {
	adj      [][]Edge
	directed bool
	edges    int
}

// New returns a graph with n nodes and no edges.
func New(n int, directed bool) *Graph {
	return &Graph{adj: make([][]Edge, n), directed: directed}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges (each undirected edge counted once).
func (g *Graph) M() int { return g.edges }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts an edge u→v with the given weight (and v→u when the graph
// is undirected). It returns an error for out-of-range endpoints, self loops,
// or non-positive weight.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("graph: self loop at %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: non-positive weight %g on edge (%d,%d)", w, u, v)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	if !g.directed {
		g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
	}
	g.edges++
	return nil
}

// HasEdge reports whether an edge u→v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice must not be
// modified: it is a zero-copy view into the graph, read in the inner loops
// of the cn scheduler and every traversal — copying here would allocate
// O(degree) per visit on the hottest paths in the repo.
func (g *Graph) Neighbors(u int) []Edge { //humnet:allow aliasret -- zero-copy read view on traversal hot paths; the no-modify contract is documented
	return g.adj[u]
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// WeightedDegree returns the sum of edge weights incident to u.
func (g *Graph) WeightedDegree(u int) float64 {
	s := 0.0
	for _, e := range g.adj[u] {
		s += e.Weight
	}
	return s
}

// BFS returns the hop distance from src to every node (-1 when unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= len(g.adj) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] == -1 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra returns the weighted distance from src to every node
// (math.Inf(1) when unreachable) and the predecessor of each node on its
// shortest path (-1 for src and unreachable nodes).
func (g *Graph) Dijkstra(src int) (dist []float64, prev []int) {
	n := len(g.adj)
	dist = make([]float64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	if src < 0 || src >= n {
		return dist, prev
	}
	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.node
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, prev
}

// Path reconstructs the shortest path from src to dst given the prev array
// returned by Dijkstra. Returns nil when dst is unreachable.
func Path(prev []int, src, dst int) []int {
	if dst < 0 || dst >= len(prev) {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Components returns, for undirected graphs, the component label of each node
// and the number of components. For directed graphs it treats edges as
// undirected (weak components).
func (g *Graph) Components() (label []int, count int) {
	n := len(g.adj)
	label = make([]int, n)
	for i := range label {
		label[i] = -1
	}
	// Build an undirected view for directed graphs.
	undirected := g.adj
	if g.directed {
		undirected = make([][]Edge, n)
		for u, es := range g.adj {
			for _, e := range es {
				undirected[u] = append(undirected[u], e)
				undirected[e.To] = append(undirected[e.To], Edge{To: u, Weight: e.Weight})
			}
		}
	}
	for s := 0; s < n; s++ {
		if label[s] != -1 {
			continue
		}
		label[s] = count
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range undirected[u] {
				if label[e.To] == -1 {
					label[e.To] = count
					queue = append(queue, e.To)
				}
			}
		}
		count++
	}
	return label, count
}

// GiantComponentSize returns the size of the largest (weak) component.
func (g *Graph) GiantComponentSize() int {
	label, count := g.Components()
	sizes := make([]int, count)
	for _, l := range label {
		sizes[l]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// DegreeCentrality returns degree/(n-1) for each node (0 for n < 2).
func (g *Graph) DegreeCentrality() []float64 {
	n := len(g.adj)
	c := make([]float64, n)
	if n < 2 {
		return c
	}
	for u := range g.adj {
		c[u] = float64(len(g.adj[u])) / float64(n-1)
	}
	return c
}

// ClosenessCentralityCtx returns, for each node, (reachable)/(n-1) *
// (reachable/sum-of-distances) — the Wasserman–Faust normalization that
// handles disconnected graphs. Hop distances are used (unweighted). The
// per-source BFS runs on at most workers goroutines (workers <= 0 means
// GOMAXPROCS, workers == 1 runs serially). Each source writes only its own
// entry, so the output is bit-identical for every worker count. ctx is
// checked between per-source BFS tasks, so a cancelled caller stops paying
// for sources it no longer wants; on cancellation the partial result is
// discarded and ctx.Err() returned.
func (g *Graph) ClosenessCentralityCtx(ctx context.Context, workers int) ([]float64, error) {
	n := len(g.adj)
	c := make([]float64, n)
	if n < 2 {
		return c, nil
	}
	err := parallel.ForEach(ctx, n, workers, func(u int) error {
		dist := g.BFS(u)
		sum, reach := 0, 0
		for v, d := range dist {
			if v != u && d > 0 {
				sum += d
				reach++
			}
		}
		if sum > 0 {
			r := float64(reach)
			c[u] = (r / float64(n-1)) * (r / float64(sum))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// brandesFrom runs the single-source phase of Brandes' algorithm from s
// (shortest-path DAG construction plus dependency accumulation, Brandes
// 2001) and writes each node's dependency into delta, which must be a zeroed
// slice of length N.
func (g *Graph) brandesFrom(s int, delta []float64) {
	n := len(g.adj)
	stack := make([]int, 0, n)
	preds := make([][]int, n)
	sigma := make([]float64, n)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma[s] = 1
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		stack = append(stack, v)
		for _, e := range g.adj[v] {
			w := e.To
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[v]+1 {
				sigma[w] += sigma[v]
				preds[w] = append(preds[w], v)
			}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		w := stack[i]
		for _, v := range preds[w] {
			delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
		}
	}
}

// BetweennessCentralityCtx returns Brandes' betweenness centrality
// (unweighted). For undirected graphs the counts are halved per convention.
// The per-source phases run on at most workers goroutines (workers <= 0
// means GOMAXPROCS, workers == 1 runs serially with no goroutines).
// Per-source dependency vectors are computed concurrently but merged into
// the result strictly in source order, so the floating-point accumulation
// order — and therefore the output, bit for bit — is identical for every
// worker count. ctx is checked between per-source Brandes phases; on
// cancellation the partial accumulation is discarded and ctx.Err()
// returned.
func (g *Graph) BetweennessCentralityCtx(ctx context.Context, workers int) ([]float64, error) {
	n := len(g.adj)
	cb := make([]float64, n)
	if n == 0 {
		return cb, nil
	}
	accumulate := func(s int, delta []float64) error {
		for w, d := range delta {
			if w != s {
				cb[w] += d
			}
		}
		return nil
	}
	if parallel.Workers(workers, n) == 1 {
		delta := make([]float64, n)
		for s := 0; s < n; s++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			clear(delta)
			g.brandesFrom(s, delta)
			_ = accumulate(s, delta)
		}
	} else {
		err := parallel.ReduceOrdered(ctx, n, workers,
			func(s int) ([]float64, error) {
				delta := make([]float64, n)
				g.brandesFrom(s, delta)
				return delta, nil
			},
			accumulate)
		if err != nil {
			return nil, err
		}
	}
	if !g.directed {
		for i := range cb {
			cb[i] /= 2
		}
	}
	return cb, nil
}

// PageRank returns the PageRank vector with the given damping factor,
// iterating until the L1 change is below tol or maxIter is reached. Dangling
// mass is redistributed uniformly.
func (g *Graph) PageRank(damping float64, maxIter int, tol float64) []float64 {
	n := len(g.adj)
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		base := (1 - damping) / float64(n)
		dangling := 0.0
		for i := range next {
			next[i] = base
		}
		for u := range g.adj {
			if len(g.adj[u]) == 0 {
				dangling += rank[u]
				continue
			}
			share := damping * rank[u] / float64(len(g.adj[u]))
			for _, e := range g.adj[u] {
				next[e.To] += share
			}
		}
		if dangling > 0 {
			spread := damping * dangling / float64(n)
			for i := range next {
				next[i] += spread
			}
		}
		diff := 0.0
		for i := range rank {
			diff += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if diff < tol {
			break
		}
	}
	return rank
}

// EigenvectorCentrality returns the principal-eigenvector centrality via
// power iteration (undirected interpretation: uses out-edges). The vector is
// normalized to unit max.
func (g *Graph) EigenvectorCentrality(maxIter int, tol float64) []float64 {
	n := len(g.adj)
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	next := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	for iter := 0; iter < maxIter; iter++ {
		// Shifted iteration (A+I)v: same eigenvectors as A, but converges on
		// bipartite graphs where plain power iteration oscillates.
		copy(next, v)
		for u := range g.adj {
			for _, e := range g.adj[u] {
				next[e.To] += v[u] * e.Weight
			}
		}
		maxVal := 0.0
		for _, x := range next {
			if x > maxVal {
				maxVal = x
			}
		}
		if maxVal == 0 {
			return next
		}
		diff := 0.0
		for i := range next {
			next[i] /= maxVal
			diff += math.Abs(next[i] - v[i])
		}
		v, next = next, v
		if diff < tol {
			break
		}
	}
	return v
}

// LabelPropagation partitions the graph into communities using synchronous-
// free asynchronous label propagation with a deterministic node order drawn
// from r. It returns a community label per node (labels are compacted to
// 0..k-1) and the community count.
func (g *Graph) LabelPropagation(r *rng.Rand, maxRounds int) (label []int, count int) {
	n := len(g.adj)
	label = make([]int, n)
	for i := range label {
		label[i] = i
	}
	order := r.Perm(n)
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, u := range order {
			if len(g.adj[u]) == 0 {
				continue
			}
			weight := make(map[int]float64)
			for _, e := range g.adj[u] {
				weight[label[e.To]] += e.Weight
			}
			// Deterministic tie-break: lowest label wins. Scanning the
			// candidate labels in ascending order with a strict comparison
			// selects the smallest max-weight label; seeding best with the
			// node's own label would instead let it defeat equal-weight
			// lower labels.
			keys := make([]int, 0, len(weight))
			for k := range weight {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			best, bestW := -1, math.Inf(-1)
			for _, k := range keys {
				if weight[k] > bestW {
					best, bestW = k, weight[k]
				}
			}
			if best != label[u] {
				label[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Compact labels.
	remap := make(map[int]int)
	for i, l := range label {
		c, ok := remap[l]
		if !ok {
			c = len(remap)
			remap[l] = c
		}
		label[i] = c
	}
	return label, len(remap)
}

// Modularity returns the Newman modularity of the given partition
// (undirected, weighted).
func (g *Graph) Modularity(label []int) float64 {
	if len(label) != len(g.adj) {
		return math.NaN()
	}
	var total float64 // 2m for undirected stored both ways
	for u := range g.adj {
		for _, e := range g.adj[u] {
			total += e.Weight
		}
	}
	if total == 0 {
		return 0
	}
	inside := make(map[int]float64)
	degSum := make(map[int]float64)
	for u := range g.adj {
		degSum[label[u]] += g.WeightedDegree(u)
		for _, e := range g.adj[u] {
			if label[u] == label[e.To] {
				inside[label[u]] += e.Weight
			}
		}
	}
	// Accumulate per-community terms in sorted community order: float
	// addition is not associative, so map order would change low bits
	// run-to-run.
	comms := make([]int, 0, len(degSum))
	for c := range degSum {
		comms = append(comms, c)
	}
	sort.Ints(comms)
	q := 0.0
	for _, c := range comms {
		if in, ok := inside[c]; ok {
			q += in/total - (degSum[c]/total)*(degSum[c]/total)
		} else {
			q -= (degSum[c] / total) * (degSum[c] / total)
		}
	}
	return q
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman 2002). NaN when degenerate.
func (g *Graph) DegreeAssortativity() float64 {
	var xs, ys []float64
	for u := range g.adj {
		for _, e := range g.adj[u] {
			xs = append(xs, float64(len(g.adj[u])))
			ys = append(ys, float64(len(g.adj[e.To])))
		}
	}
	return stats.Pearson(xs, ys)
}

// KCore returns each node's core number: the largest k such that the node
// belongs to a subgraph where every member has degree >= k (undirected
// interpretation; uses the standard peeling algorithm). Core numbers
// identify the densely collaborating center of a coauthorship network —
// who is structurally "in the room".
func (g *Graph) KCore() []int {
	n := len(g.adj)
	deg := make([]int, n)
	for u := range g.adj {
		deg[u] = len(g.adj[u])
	}
	core := make([]int, n)
	removed := make([]bool, n)
	// Peel the minimum-degree node repeatedly; the core number is the
	// running maximum of degrees at removal time.
	k := 0
	for peeled := 0; peeled < n; peeled++ {
		u, best := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < best {
				u, best = v, deg[v]
			}
		}
		if u == -1 {
			break
		}
		removed[u] = true
		if deg[u] > k {
			k = deg[u]
		}
		core[u] = k
		for _, e := range g.adj[u] {
			if !removed[e.To] && deg[e.To] > 0 {
				deg[e.To]--
			}
		}
	}
	return core
}

// Degeneracy returns the graph's degeneracy (maximum core number), 0 for
// empty graphs.
func (g *Graph) Degeneracy() int {
	best := 0
	for _, c := range g.KCore() {
		if c > best {
			best = c
		}
	}
	return best
}
