package main

import (
	"context"
	"fmt"

	"repro/api"
	"repro/client"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/opacity"
	"repro/internal/server"
)

// auditHot repeats warm opacity queries by graph_ref through a router
// in front of two backends. Set-up answers every (graph, L) pair once,
// so every timed query is a result-cache hit on the graph's ring owner:
// the workload measures the serving stack (SDK, router hop, middleware,
// the O(m) cache-key hash, response encode and decode) and no compute.
type auditHot struct {
	seed   int64
	graphs []*graph.Graph
	ls     []int
	want   []uint64 // oracle fingerprint per pair
	refs   []string
}

func newAuditHot(o options) (workload, error) {
	n, m, count := 1000, 4000, 16
	if o.tiny {
		n, m, count = 80, 240, 3
	}
	w := &auditHot{seed: o.seed, ls: []int{1, 2, 3}}
	for k := range count {
		g, err := gen.RMAT(n, m, gen.WebRMAT(), rngFor(o.seed, inputStream+k))
		if err != nil {
			return nil, err
		}
		w.graphs = append(w.graphs, g)
		for _, l := range w.ls {
			w.want = append(w.want, opacityOracle(opacity.NewReport(g, nil, l)))
		}
	}
	return w, nil
}

func (w *auditHot) pair(i int) (g, li int) {
	p := int(mix(w.seed, i) % uint64(len(w.want)))
	return p / len(w.ls), p % len(w.ls)
}

func (w *auditHot) setup(ctx context.Context, tr *tracer) (*tier, error) {
	t, err := startTier(2, true, server.Config{}, tr)
	if err != nil {
		return nil, err
	}
	c, err := client.New(t.front)
	if err != nil {
		t.close()
		return nil, err
	}
	w.refs = w.refs[:0]
	for _, g := range w.graphs {
		reg, err := c.Graphs.Register(ctx, api.GraphRegisterRequest{Graph: &api.Graph{N: g.N(), Edges: pairs(g.Edges())}})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("register: %w", err)
		}
		w.refs = append(w.refs, reg.ID)
		for _, l := range w.ls {
			if _, err := c.Opacity(ctx, api.OpacityRequest{GraphRef: reg.ID, L: l}); err != nil {
				t.close()
				return nil, fmt.Errorf("warm opacity: %w", err)
			}
		}
	}
	return t, nil
}

func (w *auditHot) op(ctx context.Context, _ *tier, c *client.Client, i int) (uint64, error) {
	g, li := w.pair(i)
	var rep *api.OpacityResponse
	err := call(ctx, "client.opacity", func(ctx context.Context) (err error) {
		rep, err = c.Opacity(ctx, api.OpacityRequest{GraphRef: w.refs[g], L: w.ls[li]})
		return err
	})
	if err != nil {
		return 0, err
	}
	return opacityAnswer(rep), nil
}

func (w *auditHot) oracle(i int) uint64 {
	g, li := w.pair(i)
	return w.want[g*len(w.ls)+li]
}

func (w *auditHot) items() []item {
	out := make([]item, len(w.graphs))
	for k, g := range w.graphs {
		out[k] = item{g: g, l: w.ls[len(w.ls)-1]}
	}
	return out
}

// replay adds nothing: the common replays (cache key, build) are this
// workload's only layer calls.
func (w *auditHot) replay(context.Context, *tracer, []int) error { return nil }
