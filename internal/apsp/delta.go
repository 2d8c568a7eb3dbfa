package apsp

import "repro/internal/graph"

// InsertionDelta reports, without mutating anything, every unordered pair
// whose L-capped distance would decrease if the edge {u, v} were inserted
// into the graph that matrix m currently describes. For each such pair it
// calls visit(x, y, oldD, newD) with x < y.
//
// The computation is exact in O(n^2): a new shortest path created by the
// edge {u, v} must cross it, so
//
//	d'(x, y) = min(d(x, y), d(x, u) + 1 + d(v, y), d(x, v) + 1 + d(u, y)),
//
// and legs longer than L-1 (stored as Far or L) cannot contribute a path
// within the cap, so the capped matrix suffices as input.
func InsertionDelta(m Store, u, v int, visit func(x, y, oldD, newD int)) {
	InsertionDeltaScratch(m, u, v, nil, visit)
}

// InsertionDeltaScratch is InsertionDelta with caller-provided scratch
// buffers, for the greedy sweeps that evaluate every absent edge at
// every step: with a reused Scratch the scan allocates nothing.
func InsertionDeltaScratch(m Store, u, v int, scratch *Scratch, visit func(x, y, oldD, newD int)) {
	n := m.N()
	L := m.L()
	far := m.Far()
	if scratch == nil {
		scratch = NewScratch(n)
	}
	du := scratch.du[:n] // capped d(x, u)
	dv := scratch.dv[:n] // capped d(x, v)
	for x := 0; x < n; x++ {
		switch x {
		case u:
			du[x] = 0
			dv[x] = m.Get(x, v)
		case v:
			du[x] = m.Get(x, u)
			dv[x] = 0
		default:
			du[x] = m.Get(x, u)
			dv[x] = m.Get(x, v)
		}
	}
	for x := 0; x < n; x++ {
		// Shortest leg from x to the new edge; +1 crosses the edge. The
		// du/dv arrays carry 0 at the endpoints themselves, so the two
		// candidate formulas are uniform over all pairs, including pairs
		// touching u or v and the pair {u, v} itself.
		viaU := du[x] + 1 // x -> u, cross to v, then v -> y
		viaV := dv[x] + 1 // x -> v, cross to u, then u -> y
		if viaU > L && viaV > L {
			continue // x too far from both endpoints to gain anything
		}
		for y := x + 1; y < n; y++ {
			old := m.Get(x, y)
			if old == 1 {
				continue // cannot improve below 1
			}
			cand := far
			if c := viaU + dv[y]; c < cand {
				cand = c
			}
			if c := viaV + du[y]; c < cand {
				cand = c
			}
			if cand < old && cand <= L {
				visit(x, y, old, cand)
			}
		}
	}
}

// A removal can only lengthen a pair (x, y) whose every shortest <=L
// path crossed the edge {u, v}. Crossing u -> v forces
// d(x,v) == d(x,u)+1 with d(x,u) <= L-1, and d(y,u) == d(y,v)+1 with
// d(y,v) <= L-1 — x on u's crossing side S_u, y on v's side S_v — and
// fixes the old distance at d(x,u) + 1 + d(v,y). The two sides are
// disjoint, so one side's rows witness every changed pair exactly
// once. RemovalDelta, AffectedRemovalSources and RepairStore's removal
// phase all derive the sides from crossing and sweep the side sweepU
// picks.

// crossing reports whether a vertex at capped distance du from u and
// dv from v lies on u's crossing side of the edge {u, v}; swap the
// arguments for v's side.
func crossing(du, dv, L int) bool { return du <= L-1 && dv == du+1 }

// sweepU reports whether a removal sweeps u's crossing side rather
// than v's: the smaller side, ties going to u's.
func sweepU(sizeU, sizeV int) bool { return sizeU <= sizeV }

// AffectedRemovalSources returns, ascending, the crossing side that
// removing the edge {u, v} re-rows — exactly the sources RemovalDelta
// sweeps with a skip-edge BFS: S_u = {x : d(x,u) <= L-1,
// d(x,v) == d(x,u)+1} or its mirror S_v, whichever is smaller (ties go
// to S_u). Every pair whose distance the removal changes has exactly
// one endpoint in the returned set. The sides are read from m, which
// must describe the graph with the edge present; RepairStore's removal
// phase uses the same sets, and perfbench's per-layer
// apsp.removal_sources averages its size.
func AffectedRemovalSources(m Store, u, v int) []int {
	n, L := m.N(), m.L()
	var sU, sV []int
	for x := 0; x < n; x++ {
		du, dv := 0, 0
		if x != u {
			du = m.Get(x, u)
		}
		if x != v {
			dv = m.Get(x, v)
		}
		if crossing(du, dv, L) {
			sU = append(sU, x)
		} else if crossing(dv, du, L) {
			sV = append(sV, x)
		}
	}
	if sweepU(len(sU), len(sV)) {
		return sU
	}
	return sV
}

// RemovalDelta reports, without mutating anything, every unordered
// pair whose L-capped distance changes when the edge {u, v} is removed.
// g must be the graph WITH the edge still present and m its L-capped
// store; m supplies only N and L, because every old distance follows
// from the crossing formula and the store is never read. The kernel
// runs on g's memoized CSR snapshot (graph.Graph.Frozen):
//
//  1. two bounded BFS from u and v, with the edge present, give the
//     legs d(.,u) and d(.,v) within L-1, and from them the crossing
//     sides S_u and S_v;
//  2. from each vertex x of the smaller side only, a skip-edge BFS
//     (graph.CSR.BoundedBFSIntoSkip) gives the distances without the
//     edge, compared against the other side only: a pair (x, y) with
//     old = d(x,u) + 1 + d(v,y) <= L changed iff its new distance
//     exceeds old.
//
// g is only ever read, which lets the anonymization heuristics'
// parallel candidate scans share one graph and one snapshot across
// workers. visit is called exactly once per changed pair with x < y
// and oldD < newD, in an order fixed by the graph.
//
// scratch may be nil; pass a Scratch to amortize allocations across the
// many candidate evaluations of a greedy sweep — with one the kernel
// allocates nothing.
func RemovalDelta(g *graph.Graph, m Store, u, v int, scratch *Scratch, visit func(x, y, oldD, newD int)) {
	if !g.HasEdge(u, v) {
		panic("apsp: RemovalDelta on absent edge")
	}
	n, L := m.N(), m.L()
	far := int32(m.Far())
	if scratch == nil {
		scratch = NewScratch(n)
	}
	c := g.Frozen()
	legU, legV, row := scratch.legU, scratch.legV, scratch.row
	visU := c.BoundedBFSInto(u, L-1, legU, scratch.queueU)
	visV := c.BoundedBFSInto(v, L-1, legV, scratch.queueV)
	// A leg BFS leaves -1 beyond depth L-1. For a vertex within L-1 of
	// the other endpoint, that leg is then exactly L (the edge bounds
	// the two legs within one of each other), so map it to L.
	leg := func(d int32) int {
		if d < 0 {
			return L
		}
		return int(d)
	}
	sideU, sideV := scratch.sideU[:0], scratch.sideV[:0]
	for _, x := range visU {
		if crossing(int(legU[x]), leg(legV[x]), L) {
			sideU = append(sideU, x)
		}
	}
	for _, x := range visV {
		if crossing(int(legV[x]), leg(legU[x]), L) {
			sideV = append(sideV, x)
		}
	}
	src, dst, legSrc, legDst := sideU, sideV, legU, legV
	if !sweepU(len(sideU), len(sideV)) {
		src, dst, legSrc, legDst = sideV, sideU, legV, legU
	}
	queue := scratch.queueRow
	for _, x := range src {
		visited := c.BoundedBFSIntoSkip(int(x), L, row, queue, u, v)
		via := legSrc[x] + 1
		for _, y := range dst {
			oldD := via + legDst[y]
			if oldD > int32(L) {
				continue
			}
			newD := row[y]
			if newD < 0 {
				newD = far
			}
			if newD > oldD {
				lo, hi := int(x), int(y)
				if lo > hi {
					lo, hi = hi, lo
				}
				visit(lo, hi, int(oldD), int(newD))
			}
		}
		for _, w := range visited {
			row[w] = -1
		}
		queue = visited[:0]
	}
	for _, x := range visU {
		legU[x] = -1
	}
	for _, x := range visV {
		legV[x] = -1
	}
	scratch.queueU, scratch.queueV, scratch.queueRow = visU[:0], visV[:0], queue
	scratch.sideU, scratch.sideV = sideU, sideV
}

// ApplyInsertion mutates m to reflect inserting the edge {u, v} into the
// graph it describes (the graph itself is not touched).
func ApplyInsertion(m MutableStore, u, v int) {
	InsertionDelta(m, u, v, func(x, y, _, newD int) {
		m.Set(x, y, newD)
	})
}

// ApplyRemoval mutates m to reflect removing the edge {u, v}. g must
// still contain the edge; it is only read, never mutated.
func ApplyRemoval(g *graph.Graph, m MutableStore, u, v int, scratch *Scratch) {
	type upd struct{ x, y, d int }
	var ups []upd
	RemovalDelta(g, m, u, v, scratch, func(x, y, _, newD int) {
		ups = append(ups, upd{x, y, newD})
	})
	for _, p := range ups {
		m.Set(p.x, p.y, p.d)
	}
}

// Scratch holds reusable buffers for the delta kernels so that the
// greedy sweeps, which evaluate every candidate edge at every step, do
// not allocate per candidate. All buffers are O(n); the kernels only
// read the graph and the store, so each concurrent evaluator needs its
// own Scratch but can share the graph and store.
type Scratch struct {
	// du, dv hold InsertionDelta's capped legs to the endpoints.
	du, dv []int
	// legU, legV and row are RemovalDelta's BFS distance rows (the legs
	// to u and v, and one side vertex's row without the edge), -1
	// between calls; the queues are their visit orders.
	legU, legV, row          []int32
	queueU, queueV, queueRow []int32
	sideU, sideV             []int32 // the crossing sides S_u and S_v
}

// NewScratch returns buffers sized for an n-vertex graph.
func NewScratch(n int) *Scratch {
	unvisited := func() []int32 {
		d := make([]int32, n)
		for i := range d {
			d[i] = -1
		}
		return d
	}
	return &Scratch{
		du:       make([]int, n),
		dv:       make([]int, n),
		legU:     unvisited(),
		legV:     unvisited(),
		row:      unvisited(),
		queueU:   make([]int32, 0, n),
		queueV:   make([]int32, 0, n),
		queueRow: make([]int32, 0, n),
		sideU:    make([]int32, 0, n),
		sideV:    make([]int32, 0, n),
	}
}
