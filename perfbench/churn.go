package main

import (
	"context"
	"fmt"
	"slices"

	"repro/api"
	"repro/client"
	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/opacity"
	"repro/internal/registry"
	"repro/internal/server"
)

// churn is the write path beside the read path. Each op PATCHes one of
// a few warm parents with a fresh seeded diff, queries the child's
// opacity (its store is repaired from the parent's, then swept in
// full), and DELETEs the child so the working set stays fixed. No
// router, no anonymizer.
type churn struct {
	seed    int64
	l       int
	parents []*graph.Graph
	periph  [][]graph.Edge // per parent: its most peripheral edges
	refs    []string
}

// churnDiff is op i's mutation of one parent.
type churnDiff struct {
	parent        int
	adds, removes [][2]int
}

func newChurn(o options) (workload, error) {
	// n=1000 keeps a parent's L=3 store (1 MB compact) inside one
	// core's L2 cache. At n=2000 the store is 4 MB, and op latency moved
	// twice as much with the shared host's memory traffic.
	n, m, count := 1000, 4000, 4
	if o.tiny {
		n, m, count = 150, 450, 2
	}
	w := &churn{seed: o.seed, l: 3}
	for k := range count {
		g, err := gen.RMAT(n, m, gen.WebRMAT(), rngFor(o.seed, inputStream+k))
		if err != nil {
			return nil, err
		}
		w.parents = append(w.parents, g)
		// Removal candidates: the edges with the lowest endpoint degree
		// sum, the shape of everyday churn. Removing a core edge would
		// re-row much of the graph and measure repair's worst case.
		deg := g.Degrees()
		es := g.Edges()
		slices.SortStableFunc(es, func(a, b graph.Edge) int {
			return (deg[a.U] + deg[a.V]) - (deg[b.U] + deg[b.V])
		})
		w.periph = append(w.periph, es[:max(8, len(es)/50)])
	}
	return w, nil
}

// diff is op i's seeded mutation: three fresh edges plus the removal of
// one peripheral edge of parent i mod len(parents).
func (w *churn) diff(i int) churnDiff {
	p := i % len(w.parents)
	g := w.parents[p]
	rng := rngFor(w.seed, i)
	rm := w.periph[p][rng.Intn(len(w.periph[p]))]
	d := churnDiff{parent: p, removes: [][2]int{{rm.U, rm.V}}}
	for len(d.adds) < 3 {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u > v {
			u, v = v, u
		}
		e := [2]int{u, v}
		if u == v || g.HasEdge(u, v) || slices.Contains(d.adds, e) {
			continue
		}
		d.adds = append(d.adds, e)
	}
	return d
}

func (w *churn) setup(ctx context.Context, tr *tracer) (*tier, error) {
	t, err := startTier(1, false, server.Config{}, tr)
	if err != nil {
		return nil, err
	}
	c, err := client.New(t.front)
	if err != nil {
		t.close()
		return nil, err
	}
	w.refs = w.refs[:0]
	for _, g := range w.parents {
		reg, err := c.Graphs.Register(ctx, api.GraphRegisterRequest{Graph: &api.Graph{N: g.N(), Edges: pairs(g.Edges())}})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("register: %w", err)
		}
		w.refs = append(w.refs, reg.ID)
		if _, err := c.Opacity(ctx, api.OpacityRequest{GraphRef: reg.ID, L: w.l}); err != nil {
			t.close()
			return nil, fmt.Errorf("warm opacity: %w", err)
		}
	}
	return t, nil
}

func (w *churn) op(ctx context.Context, _ *tier, c *client.Client, i int) (uint64, error) {
	d := w.diff(i)
	var child *api.GraphPatchResponse
	err := call(ctx, "client.graphs_patch", func(ctx context.Context) (err error) {
		child, err = c.Graphs.Patch(ctx, w.refs[d.parent], api.GraphPatchRequest{Add: d.adds, Remove: d.removes})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("patch: %w", err)
	}
	var rep *api.OpacityResponse
	err = call(ctx, "client.opacity", func(ctx context.Context) (err error) {
		rep, err = c.Opacity(ctx, api.OpacityRequest{GraphRef: child.ID, L: w.l})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("opacity: %w", err)
	}
	err = call(ctx, "client.graphs_delete", func(ctx context.Context) error {
		return c.Graphs.Delete(ctx, child.ID)
	})
	if err != nil {
		return 0, fmt.Errorf("delete: %w", err)
	}
	return opacityAnswer(rep), nil
}

// child applies op i's diff to a copy of its parent.
func (w *churn) child(d churnDiff) (*graph.Graph, graph.Diff, error) {
	g := w.parents[d.parent].Clone()
	gd, err := graph.NewDiff(g.N(), d.adds, d.removes)
	if err != nil {
		return nil, gd, err
	}
	return g, gd, gd.Apply(g)
}

// oracle reports over a from-scratch build of the child. It builds
// with the bit-parallel engine, the fastest; every engine builds the
// same store.
func (w *churn) oracle(i int) uint64 {
	g, _, err := w.child(w.diff(i))
	if err != nil {
		return 0
	}
	return opacityOracle(opacity.NewReportWith(g, nil, w.l, apsp.BuildOptions{Engine: apsp.EngineBit}))
}

func (w *churn) items() []item {
	out := make([]item, len(w.parents))
	for k, g := range w.parents {
		out[k] = item{g: g, l: w.l}
	}
	return out
}

// replay runs the write path's layers in-process on the first ops'
// diffs: Registry.Mutate, apsp.RepairStore from the warm parent store,
// and the full opacity sweep over the repaired store.
func (w *churn) replay(_ context.Context, tr *tracer, ops []int) error {
	reg := registry.New(registry.Config{})
	var ents []*registry.Graph
	var stores []apsp.Store
	for _, g := range w.parents {
		ent, _, err := reg.Put(g.N(), pairs(g.Edges()))
		if err != nil {
			return err
		}
		st, _ := ent.Distances(w.l, apsp.EngineAuto, apsp.KindCompact)
		ents = append(ents, ent)
		stores = append(stores, st)
	}
	for _, i := range ops[:min(len(ops), 32)] {
		d := w.diff(i)
		var ent *registry.Graph
		var err error
		tr.timed("registry.mutate", 1, func() { ent, _, err = reg.Mutate(ents[d.parent], d.adds, d.removes) })
		if err != nil {
			return fmt.Errorf("mutate: %w", err)
		}
		g, gd, err := w.child(d)
		if err != nil {
			return err
		}
		var st apsp.Store
		ok := false
		tr.timed("apsp.repair", 1, func() { st, ok = apsp.RepairStore(stores[d.parent], g, gd, apsp.RepairOptions{}) })
		if !ok {
			st = apsp.Build(g, w.l, apsp.BuildOptions{})
		}
		tr.timed("opacity.report", 1, func() { opacity.NewReportFromStore(g.Degrees(), st) })
		reg.Delete(ent.ID())
	}
	return nil
}
