package graph

// BFSDistances runs a breadth-first search from src and returns dist,
// where dist[v] is the hop distance from src to v, or -1 when v is
// unreachable.
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// BoundedBFS runs a BFS from src truncated at depth maxDepth. It returns
// dist with dist[v] = hop distance when it is <= maxDepth, and -1
// otherwise (including for src-unreachable vertices). dist[src] = 0.
//
// This is the workhorse of opacity evaluation: the privacy model only
// asks whether geodesic distances are at most L, so deeper exploration is
// wasted work — the same pruning insight behind the paper's L-pruned
// Floyd-Warshall variants.
func (g *Graph) BoundedBFS(src, maxDepth int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	g.BoundedBFSInto(src, maxDepth, dist, nil)
	return dist
}

// BoundedBFSInto is the allocation-conscious form of BoundedBFS: it writes
// distances into dist (which must have length N() and be pre-filled with
// -1) and uses queue as scratch space when non-nil. It returns the number
// of vertices reached (excluding src).
func (g *Graph) BoundedBFSInto(src, maxDepth int, dist []int, queue []int) int {
	if queue == nil {
		queue = make([]int, 0, g.N())
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	reached := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du >= maxDepth {
			continue
		}
		for w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = du + 1
				reached++
				queue = append(queue, w)
			}
		}
	}
	return reached
}

// ConnectedComponents returns a component label per vertex (labels are
// 0-based, assigned in order of smallest contained vertex) and the number
// of components.
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	labels = make([]int, g.N())
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int, 0, g.N())
	for v := 0; v < g.N(); v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = count
		queue = append(queue[:0], v)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for w := range g.adj[u] {
				if labels[w] < 0 {
					labels[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// LargestComponent returns the vertices (ascending) of the largest
// connected component; ties resolve to the component with the smallest
// vertex.
func (g *Graph) LargestComponent() []int {
	labels, count := g.ConnectedComponents()
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for l := 1; l < count; l++ {
		if sizes[l] > sizes[best] {
			best = l
		}
	}
	out := make([]int, 0, sizes[best])
	for v, l := range labels {
		if l == best {
			out = append(out, v)
		}
	}
	return out
}

// Diameter returns the longest shortest path over all reachable vertex
// pairs (the paper's Table 2/3 "Diameter" column, which is computed per
// component on possibly disconnected samples). An edgeless graph has
// diameter 0.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		dist := g.BFSDistances(v)
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// GeodesicLength returns the shortest-path length between u and v, or -1
// if v is unreachable from u.
func (g *Graph) GeodesicLength(u, v int) int {
	if u == v {
		return 0
	}
	return g.BFSDistances(u)[v]
}

// CountTrianglesAt returns the number of edges among the neighbors of v,
// i.e. the numerator (unordered) of the local clustering coefficient.
func (g *Graph) CountTrianglesAt(v int) int {
	nbrs := g.adj[v]
	count := 0
	for a := range nbrs {
		for b := range g.adj[a] {
			if b > a {
				if _, ok := nbrs[b]; ok {
					count++
				}
			}
		}
	}
	return count
}

// TriangleCount returns the total number of triangles in the graph.
func (g *Graph) TriangleCount() int {
	total := 0
	for v := 0; v < g.N(); v++ {
		total += g.CountTrianglesAt(v)
	}
	return total / 3
}
