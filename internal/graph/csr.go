package graph

import (
	"fmt"
	"math"
	"slices"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph's
// adjacency: neighbor lists packed into one int32 slice, indexed by a
// per-vertex offset table, each vertex's window sorted ascending. It is
// the iteration form of the distance-engine hot paths — walking a
// packed window costs a handful of cache lines where walking the
// mutable map adjacency costs a hash iteration and an allocation per
// call — and the sorted windows make every traversal order
// deterministic without per-call sorting.
//
// A CSR is a point-in-time snapshot: later mutations of the source
// Graph are not reflected. Graph.Frozen memoizes it, so every caller
// between two mutations — a greedy step's whole candidate scan, its
// parallel lanes, a sweep of per-source BFS — shares one snapshot, and
// the next AddEdge or RemoveEdge drops it. All methods are read-only,
// so a snapshot may be shared freely across goroutines.
type CSR struct {
	offsets   []int32 // len n+1; vertex v's window is neighbors[offsets[v]:offsets[v+1]]
	neighbors []int32 // len 2m, ascending within each window
}

// Frozen returns a CSR snapshot of the graph's current adjacency. The
// snapshot is built on first use and reused until the next successful
// AddEdge or RemoveEdge, so repeated calls on an unchanged graph cost
// one atomic load; concurrent calls on an unchanged graph are safe.
// It panics when the vertex count or the packed neighbor-array length
// 2m exceeds the int32 index space.
func (g *Graph) Frozen() *CSR {
	if c := g.frozen.Load(); c != nil {
		return c
	}
	c := g.freeze()
	if !g.frozen.CompareAndSwap(nil, c) {
		// A concurrent caller stored its (identical) snapshot first;
		// share that one.
		return g.frozen.Load()
	}
	return c
}

// freeze builds a fresh CSR snapshot of the adjacency.
func (g *Graph) freeze() *CSR {
	n := g.N()
	if int64(n) > math.MaxInt32 || int64(2*g.m) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: n=%d m=%d exceeds CSR int32 index space", n, g.m))
	}
	c := &CSR{
		offsets:   make([]int32, n+1),
		neighbors: make([]int32, 2*g.m),
	}
	for v := 0; v < n; v++ {
		c.offsets[v+1] = c.offsets[v] + int32(g.degree[v])
	}
	for v := 0; v < n; v++ {
		w := c.offsets[v]
		for u := range g.adj[v] {
			c.neighbors[w] = int32(u)
			w++
		}
		slices.Sort(c.neighbors[c.offsets[v]:w])
	}
	return c
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the number of (undirected) edges.
func (c *CSR) M() int { return len(c.neighbors) / 2 }

// Degree returns the degree of vertex v.
func (c *CSR) Degree(v int) int { return int(c.offsets[v+1] - c.offsets[v]) }

// Neighbors returns v's neighbor window, ascending. The slice aliases
// the CSR's backing array — zero-copy, zero-alloc — and must be
// treated as read-only.
func (c *CSR) Neighbors(v int) []int32 {
	return c.neighbors[c.offsets[v]:c.offsets[v+1]]
}

// BoundedBFSInto runs a BFS from src truncated at depth maxDepth,
// writing hop distances into dist. dist must have length N() and be
// pre-filled with -1; queue is reused as the work list (grown as
// needed). It returns the visit order — src first, then every vertex
// reached within maxDepth — which is exactly the set of dist entries
// written, so the caller can undo its writes in O(visited):
//
//	visited := c.BoundedBFSInto(src, L, dist, queue)
//	for _, v := range visited {
//	    ... use dist[v] ...
//	    dist[v] = -1
//	}
//	queue = visited[:0]
//
// Touched-only reset is what makes a full APSP sweep O(sum of ball
// sizes) instead of O(n) per source; with a pre-sized queue the loop
// performs zero allocations (asserted by testing.AllocsPerRun).
func (c *CSR) BoundedBFSInto(src, maxDepth int, dist []int32, queue []int32) []int32 {
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	md := int32(maxDepth)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du >= md {
			continue
		}
		for _, w := range c.neighbors[c.offsets[u]:c.offsets[u+1]] {
			if dist[w] < 0 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// BoundedBFSIntoSkip is BoundedBFSInto on the graph with the single
// edge {su, sv} treated as absent, under the same dist/queue contract.
// It answers "what would distances be without this edge?" without
// mutating anything, which is what lets removal-delta evaluation share
// one snapshot across concurrent candidate scans. It is a separate
// loop, not BoundedBFSInto with a sentinel edge, so the APSP builds'
// inner loop carries no extra compare.
func (c *CSR) BoundedBFSIntoSkip(src, maxDepth int, dist []int32, queue []int32, su, sv int) []int32 {
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	md := int32(maxDepth)
	a, b := int32(su), int32(sv)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du >= md {
			continue
		}
		// The masked neighbor of u: the edge's other endpoint when u is
		// one of them, else -1, which matches no vertex.
		skip := int32(-1)
		switch u {
		case a:
			skip = b
		case b:
			skip = a
		}
		for _, w := range c.neighbors[c.offsets[u]:c.offsets[u+1]] {
			if w != skip && dist[w] < 0 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// BFSDistances runs an unbounded BFS from src and returns the full
// distance row, with -1 for unreachable vertices. It is the CSR
// counterpart of Graph.BFSDistances for callers that issue many
// per-source queries against a frozen snapshot (the attack package's
// adversary): the row is freshly allocated, but the traversal itself
// never touches the map adjacency.
func (c *CSR) BFSDistances(src int) []int32 {
	n := c.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	c.BoundedBFSInto(src, n, dist, make([]int32, 0, n))
	return dist
}
