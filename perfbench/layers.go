package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

type layerMetric struct {
	name, unit string
	value      float64
}

// layerMetrics derives every per-layer metric from the traced ops'
// spans, the replays' spans and samples, and d, the /v1/stats counters
// differenced across the window. A layer the workload bypasses reports
// 0.
func layerMetrics(tr *tracer, d statsSnapshot, overhead float64) []layerMetric {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	kids := map[int][]span{}
	byRID := map[string][]span{}
	byName := map[string][]span{}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		if s.Name == "server" && s.RID != "" {
			byRID[s.RID] = append(byRID[s.RID], s)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	sdk, transport, handler := map[int]float64{}, map[int]float64{}, map[int]float64{}
	var routerSelf []float64
	for id, s := range tr.spans {
		switch {
		case s.Name == "client.transport":
			transport[s.Op] += ms(s.dur())
		case strings.HasPrefix(s.Name, "client."):
			sdk[s.Op] += ms(s.dur() - covered(s, kids[id]))
		case s.Name == "server" && s.Op >= 0:
			handler[s.Op] += ms(s.dur())
		case s.Name == "router" && s.Op >= 0:
			routerSelf = append(routerSelf, ms(s.dur()-covered(s, byRID[s.RID])))
		}
	}
	spanMS := func(name string) float64 {
		var vs []float64
		for _, s := range byName[name] {
			vs = append(vs, ms(s.dur()))
		}
		return median(vs)
	}
	perItemUS := func(name string) float64 {
		var d time.Duration
		n := 0
		for _, s := range byName[name] {
			d += s.dur()
			n += s.N
		}
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(n)
	}
	mean := func(name string) float64 {
		vs := tr.values[name]
		if len(vs) == 0 {
			return 0
		}
		var sum float64
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	var evals, runMS float64
	for _, v := range tr.values["anonymize.candidate_evals"] {
		evals += v
	}
	for _, s := range byName["anonymize.run"] {
		runMS += ms(s.dur())
	}
	evalsPerS := 0.0
	if runMS > 0 {
		evalsPerS = evals / (runMS / 1000)
	}
	removalCands := 0
	for _, s := range byName["apsp.removal_delta"] {
		removalCands += s.N
	}
	sources := 0.0
	if removalCands > 0 {
		for _, v := range tr.values["apsp.removal_sources"] {
			sources += v
		}
		sources /= float64(removalCands)
	}
	return []layerMetric{
		{"client.sdk_ms", "ms", median(mapValues(sdk))},
		{"client.transport_ms", "ms", median(mapValues(transport))},
		{"router.self_ms", "ms", median(routerSelf)},
		{"router.hydrations", "count", float64(d.hydrations)},
		{"server.handler_ms", "ms", median(mapValues(handler))},
		{"jobs.cache_key_ms", "ms", spanMS("jobs.cache_key")},
		{"jobs.cache_hit_ratio", "fraction", ratio(d.cacheHits, d.cacheMisses)},
		{"jobs.queue_wait_ms", "ms", median(tr.values["jobs.queue_wait_ms"])},
		{"jobs.event_lag_ms", "ms", median(tr.values["jobs.event_lag_ms"])},
		{"registry.mutate_ms", "ms", spanMS("registry.mutate")},
		{"registry.repair_ratio", "fraction", ratio(d.repairs, d.fallbacks)},
		{"registry.builds", "count", float64(d.builds)},
		{"apsp.build_ms", "ms", spanMS("apsp.build")},
		{"apsp.repair_ms", "ms", spanMS("apsp.repair")},
		{"apsp.removal_delta_us", "us", perItemUS("apsp.removal_delta")},
		{"apsp.removal_sources", "count", sources},
		{"opacity.report_ms", "ms", spanMS("opacity.report")},
		{"opacity.evaluate_with_us", "us", perItemUS("opacity.evaluate_with")},
		{"anonymize.run_ms", "ms", spanMS("anonymize.run")},
		{"anonymize.candidate_evals", "count", mean("anonymize.candidate_evals")},
		{"anonymize.steps", "count", mean("anonymize.steps")},
		{"anonymize.evals_per_s", "1/s", evalsPerS},
		{"trace.overhead_pct", "%", overhead},
	}
}

func mapValues(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// routeBreakdown reports the median handler span per route and tier, so
// a reader can see where server.handler_ms goes.
func (tr *tracer) routeBreakdown() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	per := map[string][]float64{}
	for _, s := range tr.spans {
		if (s.Name == "server" || s.Name == "router") && s.Op >= 0 {
			k := s.Name + " " + s.Route
			per[k] = append(per[k], ms(s.dur()))
		}
	}
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("route %s n=%d p50_ms=%.4g", k, len(per[k]), median(per[k]))
	}
	return out
}
