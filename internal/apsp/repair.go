// Incremental store repair: replay a graph diff onto an existing
// distance store instead of rebuilding APSP from scratch.
//
// RepairStore is the engine behind PATCH /v1/graphs/{id} and the
// continuous-audit job: a k-edge diff touches O(balls around the
// edited edges) of the triangle, so repairing a warm parent store
// costs orders of magnitude less than the O(n·m) rebuild — and the
// result is cell-for-cell identical to Build on the child graph (the
// backings equivalence tests assert byte identity of the serialized
// stores).
//
// The algorithm runs in two exact phases over a copy-on-write Overlay:
//
//   - Insertions first, store-only: a new shortest path created by an
//     added edge {u, v} must cross it, so the improved distance for a
//     pair (x, y) is d(x,u) + 1 + d(v,y) (or the mirror). Bucketing
//     vertices by their capped distance to u and to v turns the naive
//     O(n²) scan into an enumeration of only the bucket pairs whose
//     sum fits under L — for a local edit, far fewer pairs than cells.
//   - Removals second, batched: a pair whose distance grows lost its
//     last shortest path through some removed edge {u, v}, which
//     forces d(x,v) == d(x,u)+1 with d(x,u) <= L-1 on one side (and
//     the mirror on the other). Those "crossing" vertex sets are
//     computed per removed edge against the store after insertions;
//     the smaller side of each edge is re-rowed by bounded BFS on the
//     child graph, which yields the exact final row regardless of how
//     many removed edges interact.
//
// A cost heuristic bails out (returning ok=false) when the diff or
// its projected blast radius is too large for repair to win; the
// caller falls back to Build/BuildToFile. Compact() thresholds keep
// long repair chains from accumulating unbounded overlay indirection.
package apsp

import (
	"slices"

	"repro/internal/graph"
)

// RepairOptions tunes the repair heuristics. The zero value selects
// the defaults; fields are fractions of n (rows, edits) or of the
// triangle cell count (dirty cells).
type RepairOptions struct {
	// MaxEditFraction bails when diff.Size() > MaxEditFraction * n —
	// a diff rewriting a sizable share of the graph repairs slower
	// than a rebuild. Zero selects 1/16. At least minEditFloor edits
	// are always allowed: on graphs small enough that the fraction
	// rounds toward zero, repair and rebuild are both trivial, so
	// bailing would only cost correctness-path coverage.
	MaxEditFraction float64
	// MaxRowFraction bails when the removal phase would re-row more
	// than MaxRowFraction * n sources (at least minRowFloor are always
	// allowed), or the insertion phase would examine more than
	// MaxRowFraction * n² candidate pairs (at least minPairFloor).
	// Zero selects 1/4.
	MaxRowFraction float64
	// CompactDepth compacts the result when the overlay chain under it
	// is deeper than this many layers. Zero selects 4.
	CompactDepth int
	// CompactDirtyFraction compacts when overridden cells exceed this
	// fraction of the triangle. Zero selects 1/8.
	CompactDirtyFraction float64
	// Scratch, when non-nil, amortizes the O(n) work buffers across
	// calls (the continuous-audit loop repairs once per step).
	Scratch *Scratch
}

// Absolute floors under the fraction-of-n heuristics: below these the
// work is negligible at any n, so the fractions only start to bite on
// graphs where a bail genuinely saves time.
const (
	minEditFloor = 8
	minRowFloor  = 8
	minPairFloor = 4096
)

func (o RepairOptions) normalized() RepairOptions {
	if o.MaxEditFraction <= 0 {
		o.MaxEditFraction = 1.0 / 16
	}
	if o.MaxRowFraction <= 0 {
		o.MaxRowFraction = 1.0 / 4
	}
	if o.CompactDepth <= 0 {
		o.CompactDepth = 4
	}
	if o.CompactDirtyFraction <= 0 {
		o.CompactDirtyFraction = 1.0 / 8
	}
	return o
}

// RepairStore replays diff onto base, returning a store identical to
// Build(child, base.L()) without rebuilding APSP. base must be the
// exact L-capped store of the PARENT graph; child must be the CHILD
// graph, i.e. the parent with diff already applied (the registry keeps
// both, so no graph is cloned here). The returned store is usually an
// Overlay sharing base — base must stay alive and read-only — but may
// be a compacted heap store when the chain-depth or dirty-fraction
// thresholds trip.
//
// ok=false means the heuristics judged the diff too large for repair
// to beat a rebuild (or the inputs are dimensionally inconsistent);
// nothing is returned and the caller should Build/BuildToFile instead.
func RepairStore(base Store, child *graph.Graph, diff graph.Diff, opts RepairOptions) (Store, bool) {
	n := base.N()
	L := base.L()
	if child == nil || child.N() != n || diff.N != n || L < 1 {
		return nil, false
	}
	opts = opts.normalized()
	maxEdits := int(opts.MaxEditFraction * float64(n))
	if maxEdits < minEditFloor {
		maxEdits = minEditFloor
	}
	if diff.Size() > maxEdits {
		return nil, false
	}
	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch(n)
	}

	o := NewOverlay(base)
	// Phase 1 — insertions, in diff order. Each replay reads the
	// distances the previous one wrote, so the overlay stays exact for
	// "parent plus the adds replayed so far".
	budget := int64(opts.MaxRowFraction * float64(n) * float64(n))
	if budget < minPairFloor {
		budget = minPairFloor
	}
	for _, e := range diff.Adds {
		if !repairInsertion(o, e.U, e.V, sc, budget) {
			return nil, false
		}
	}

	// Phase 2 — removals, batched. Collect every row that can change:
	// for each removed edge, the crossing condition against the
	// post-insertion store, keeping the smaller endpoint side (every
	// changed pair has one endpoint on each side, so one side's rows
	// cover all changed cells). Then re-row the union by bounded BFS on
	// the child graph — exact final values even when removed edges'
	// neighborhoods overlap.
	if len(diff.Removes) > 0 {
		rows := removalRows(o, diff.Removes)
		maxRows := int(opts.MaxRowFraction * float64(n))
		if maxRows < minRowFloor {
			maxRows = minRowFloor
		}
		if len(rows) > maxRows {
			return nil, false
		}
		rerow(o, child, rows)
	}

	cells := int64(n) * int64(n-1) / 2
	if o.Depth() > opts.CompactDepth ||
		(cells > 0 && float64(o.Dirty()) > opts.CompactDirtyFraction*float64(cells)) {
		return o.Compact(), true
	}
	return o, true
}

// repairInsertion replays one edge insertion {u, v} onto o, exactly as
// ApplyInsertion would but in output-sensitive time: vertices are
// bucketed by capped distance to u and to v, and only bucket pairs
// (a, b) with a + 1 + b <= L are enumerated — those are the only pairs
// an x->u->v->y (or mirror) path can improve. It reports false when
// the enumeration would exceed budget pair checks, signaling the
// caller to fall back to a rebuild.
func repairInsertion(o *Overlay, u, v int, sc *Scratch, budget int64) bool {
	n, L := o.N(), o.L()
	du := sc.du[:n]
	dv := sc.dv[:n]
	for x := 0; x < n; x++ {
		switch x {
		case u:
			du[x] = 0
			dv[x] = o.Get(x, v)
		case v:
			du[x] = o.Get(x, u)
			dv[x] = 0
		default:
			du[x] = o.Get(x, u)
			dv[x] = o.Get(x, v)
		}
	}
	// Buckets over distances 0..L-1: a leg of length L cannot be part
	// of a within-cap path that still crosses the new edge.
	uBuckets := make([][]int, L)
	vBuckets := make([][]int, L)
	for x := 0; x < n; x++ {
		if du[x] < L {
			uBuckets[du[x]] = append(uBuckets[du[x]], x)
		}
		if dv[x] < L {
			vBuckets[dv[x]] = append(vBuckets[dv[x]], x)
		}
	}
	var work int64
	for a := 0; a < L; a++ {
		for b := 0; a+1+b <= L && b < L; b++ {
			work += int64(len(uBuckets[a])) * int64(len(vBuckets[b]))
			if work > budget {
				return false
			}
			cand := a + 1 + b
			for _, x := range uBuckets[a] {
				for _, y := range vBuckets[b] {
					if x == y {
						continue
					}
					if cand < o.Get(x, y) {
						o.Set(x, y, cand)
					}
				}
			}
		}
	}
	return true
}

// removalRows returns the union of rows the removal batch can change,
// ascending and deduplicated: for each removed edge, the crossing side
// AffectedRemovalSources picks against the current (post-insertion)
// store. A pair whose distance grows had a shortest path crossing some
// removed edge, which puts one of its endpoints on that edge's swept
// side, so those rows witness every changed cell.
func removalRows(o Store, removes []graph.Edge) []int {
	var rows []int
	for _, e := range removes {
		rows = append(rows, AffectedRemovalSources(o, e.U, e.V)...)
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// rerow recomputes each listed row exactly by bounded BFS on the child
// graph (via a frozen CSR snapshot — one freeze for the whole batch)
// and writes only the cells that differ, keeping the overlay sparse.
func rerow(o *Overlay, child *graph.Graph, rows []int) {
	if len(rows) == 0 {
		return
	}
	n, L, far := o.N(), o.L(), o.Far()
	csr := child.Frozen()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	for _, x := range rows {
		visited := csr.BoundedBFSInto(x, L, dist, queue)
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			d := int(dist[y])
			if d < 0 {
				d = far
			}
			if d != o.Get(x, y) {
				o.Set(x, y, d)
			}
		}
		for _, v := range visited {
			dist[v] = -1
		}
		queue = visited[:0]
	}
}
