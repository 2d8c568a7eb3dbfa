// Package graph provides the simple-graph substrate used throughout the
// L-opacity reproduction: an undirected, unweighted graph without
// self-loops or multiple edges (the data model of the paper's Section 4),
// together with traversal, sampling, structural statistics, and
// edge-list input/output.
//
// Vertices are dense integers in [0, N()). All mutating operations keep
// degree bookkeeping up to date in O(1). Iteration order over vertices is
// ascending; helpers that surface neighbor or edge collections return them
// in deterministic (sorted) order so that seeded experiments are
// reproducible bit-for-bit.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Graph is a mutable simple undirected graph over the vertex set
// {0, ..., n-1}. The zero value is not usable; construct with New or one
// of the decoding helpers.
type Graph struct {
	adj    []map[int]struct{}
	degree []int
	m      int
	// frozen memoizes Frozen's snapshot of the current adjacency;
	// AddEdge and RemoveEdge clear it, so a non-nil value always
	// matches the edge set. Atomic because read-only callers, such as
	// the anonymizer's parallel candidate lanes, freeze concurrently.
	frozen atomic.Pointer[CSR]
}

// New returns an empty simple graph on n vertices and no edges.
// It panics if n is negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Graph{
		adj:    make([]map[int]struct{}, n),
		degree: make([]int, n),
	}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

// FromEdges builds a graph on n vertices from the given edge list.
// Duplicate edges and self-loops are rejected with a panic, since they
// indicate a malformed input for a simple graph.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		if !g.AddEdge(e.U, e.V) {
			panic(fmt.Sprintf("graph: duplicate or invalid edge %v", e))
		}
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the current degree of vertex v.
func (g *Graph) Degree(v int) int { return g.degree[v] }

// Degrees returns a copy of the current degree sequence, indexed by vertex.
func (g *Graph) Degrees() []int {
	d := make([]int, len(g.degree))
	copy(d, g.degree)
	return d
}

// HasEdge reports whether the undirected edge {u, v} is present.
// Out-of-range endpoints and self-loops report false.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// AddEdge inserts the undirected edge {u, v}. It returns false (and leaves
// the graph unchanged) if the edge already exists, is a self-loop, or has
// an endpoint out of range.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	if _, ok := g.adj[u][v]; ok {
		return false
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.degree[u]++
	g.degree[v]++
	g.m++
	g.frozen.Store(nil)
	return true
}

// RemoveEdge deletes the undirected edge {u, v}. It returns false if the
// edge was not present.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.degree[u]--
	g.degree[v]--
	g.m--
	g.frozen.Store(nil)
	return true
}

// Neighbors returns the neighbors of v in ascending order. The returned
// slice is freshly allocated and safe to retain.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for w := range g.adj[v] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// EachNeighbor calls fn for every neighbor of v in unspecified order.
// It is the allocation-free counterpart of Neighbors for hot loops whose
// result does not depend on iteration order.
func (g *Graph) EachNeighbor(v int, fn func(w int)) {
	for w := range g.adj[v] {
		fn(w)
	}
}

// Edges returns all edges in canonical (U < V) form, sorted
// lexicographically. The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := range g.adj {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// EachEdge calls fn once per undirected edge with u < v, in unspecified
// order.
func (g *Graph) EachEdge(fn func(u, v int)) {
	for u := range g.adj {
		for v := range g.adj[u] {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:    make([]map[int]struct{}, len(g.adj)),
		degree: make([]int, len(g.degree)),
		m:      g.m,
	}
	copy(c.degree, g.degree)
	for v, nbrs := range g.adj {
		m := make(map[int]struct{}, len(nbrs))
		for w := range nbrs {
			m[w] = struct{}{}
		}
		c.adj[v] = m
	}
	return c
}

// Equal reports whether g and h have identical vertex counts and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.adj {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for v := range g.adj[u] {
			if _, ok := h.adj[u][v]; !ok {
				return false
			}
		}
	}
	return true
}

// MaxDegree returns the largest degree in the graph, or 0 for an empty
// vertex set.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.degree {
		if d > max {
			max = d
		}
	}
	return max
}

// DegreeHistogram returns counts[d] = number of vertices of degree d,
// with the slice sized MaxDegree()+1 (length 1 for an edgeless graph).
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for _, d := range g.degree {
		counts[d]++
	}
	return counts
}

// Validate checks internal consistency (symmetry of adjacency, degree
// bookkeeping, edge count, absence of self-loops) and returns a
// descriptive error for the first violation found. It is intended for
// tests and for auditing long mutation sequences.
func (g *Graph) Validate() error {
	m2 := 0
	for u := range g.adj {
		if len(g.adj[u]) != g.degree[u] {
			return fmt.Errorf("graph: vertex %d degree book %d != adjacency size %d", u, g.degree[u], len(g.adj[u]))
		}
		for v := range g.adj[u] {
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if v < 0 || v >= len(g.adj) {
				return fmt.Errorf("graph: neighbor %d of %d out of range", v, u)
			}
			if _, ok := g.adj[v][u]; !ok {
				return fmt.Errorf("graph: asymmetric edge %d-%d", u, v)
			}
			m2++
		}
	}
	if m2 != 2*g.m {
		return fmt.Errorf("graph: edge count book %d != adjacency half-sum %d", g.m, m2/2)
	}
	return nil
}

// String returns a short human-readable summary, e.g. "graph{n=7 m=10}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}
