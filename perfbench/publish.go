package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/anonymize"
	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/opacity"
	"repro/internal/server"
)

// publish submits the paper's greedy edge-removal anonymizer
// (Algorithm 4) as async jobs and follows each job's event stream to
// its end. Every op is a distinct (instance, seed) pair, so the result
// cache never answers; the greedy loop and the job pool do the work.
type publish struct {
	seed      int64
	l         int
	theta     float64
	instances []*graph.Graph
	refs      []string
}

func newPublish(o options) (workload, error) {
	// Instances differ several-fold in cost; the pool is large enough
	// that p90 does not fall in the gap between two of them.
	count := 384
	if o.tiny {
		count = 3
	}
	w := &publish{seed: o.seed, l: 2, theta: 0.5}
	for k := range count {
		g, err := dataset.GenerateByKey("gnutella100", int64(mix(o.seed, inputStream+k)>>1))
		if err != nil {
			return nil, err
		}
		w.instances = append(w.instances, g)
	}
	return w, nil
}

// job is op i's instance and anonymizer seed.
func (w *publish) job(i int) (inst int, seed int64) {
	return i % len(w.instances), int64(mix(w.seed, i) >> 1)
}

func (w *publish) setup(ctx context.Context, tr *tracer) (*tier, error) {
	t, err := startTier(1, false, server.Config{
		// The registry must hold every instance: the default capacity
		// is below the pool size.
		GraphCapacity: len(w.instances),
	}, tr)
	if err != nil {
		return nil, err
	}
	c, err := client.New(t.front)
	if err != nil {
		t.close()
		return nil, err
	}
	w.refs = w.refs[:0]
	for _, g := range w.instances {
		reg, err := c.Graphs.Register(ctx, api.GraphRegisterRequest{Graph: &api.Graph{N: g.N(), Edges: pairs(g.Edges())}})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("register: %w", err)
		}
		w.refs = append(w.refs, reg.ID)
		// Warms the L store every job on this instance seeds from.
		if _, err := c.Opacity(ctx, api.OpacityRequest{GraphRef: reg.ID, L: w.l}); err != nil {
			t.close()
			return nil, fmt.Errorf("warm opacity: %w", err)
		}
	}
	return t, nil
}

func (w *publish) op(ctx context.Context, _ *tier, c *client.Client, i int) (uint64, error) {
	inst, seed := w.job(i)
	req := api.AnonymizeRequest{GraphRef: w.refs[inst], L: w.l, Theta: w.theta, Method: "rem", Seed: seed}
	var job *api.JobResponse
	err := call(ctx, "client.jobs_submit", func(ctx context.Context) (err error) {
		job, err = c.Jobs.Submit(ctx, "anonymize", req)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	// Follow the event stream rather than polling: Jobs.Wait sleeps
	// between polls, which would quantize latency.
	var queued, running, terminal time.Time
	var received time.Time
	state := job.State
	err = call(ctx, "client.jobs_events", func(ctx context.Context) error {
		return c.Jobs.Events(ctx, job.ID, func(ev api.JobEvent) error {
			now := time.Now()
			if ev.Type != api.JobEventState {
				return nil
			}
			at, err := time.Parse(time.RFC3339Nano, ev.Time)
			if err != nil {
				return fmt.Errorf("event time: %w", err)
			}
			switch {
			case ev.State == api.JobQueued:
				queued = at
			case ev.State == api.JobRunning:
				running = at
			case api.JobFinished(ev.State):
				terminal, received = at, now
			}
			state = ev.State
			return nil
		})
	})
	if err != nil {
		return 0, fmt.Errorf("events: %w", err)
	}
	if state != api.JobDone {
		return 0, fmt.Errorf("job %s ended %s", job.ID, state)
	}
	if sc, ok := spanOf(ctx); ok {
		if !queued.IsZero() && !running.IsZero() {
			sc.tr.value("jobs.queue_wait_ms", ms(running.Sub(queued)))
		}
		sc.tr.value("jobs.event_lag_ms", ms(received.Sub(terminal)))
	}
	var done *api.JobResponse
	err = call(ctx, "client.jobs_get", func(ctx context.Context) (err error) {
		done, err = c.Jobs.Get(ctx, job.ID)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("get: %w", err)
	}
	var res api.AnonymizeResponse
	if err := json.Unmarshal(done.Result, &res); err != nil {
		return 0, fmt.Errorf("decoding result: %w", err)
	}
	if res.TimedOut {
		// A timed-out run's output depends on the clock.
		return 0, errors.New("anonymize job timed out")
	}
	if !res.Satisfied {
		return 0, fmt.Errorf("anonymize job ended unsatisfied at max opacity %v", res.MaxOpacity)
	}
	return newFingerprint().bool(res.Satisfied).float(res.MaxOpacity).int(res.Steps).
		pairs(res.Removed).pairs(res.Inserted).int(res.Graph.N).pairs(res.Graph.Edges).sum(), nil
}

func (w *publish) options(seed int64) anonymize.Options {
	return anonymize.Options{L: w.l, Theta: w.theta, Heuristic: anonymize.Removal, LookAhead: 1, Seed: seed}
}

// oracle runs the same anonymization in-process from a fresh build.
func (w *publish) oracle(i int) uint64 {
	inst, seed := w.job(i)
	g := w.instances[inst]
	res, err := anonymize.Run(g, w.options(seed))
	if err != nil || res.TimedOut || !res.Satisfied {
		return 0
	}
	return newFingerprint().bool(res.Satisfied).float(res.FinalLO).int(res.Steps).
		pairs(pairs(res.Removed)).pairs(pairs(res.Inserted)).int(res.Graph.N()).pairs(pairs(res.Graph.Edges())).sum()
}

func (w *publish) items() []item {
	out := make([]item, len(w.instances))
	for k, g := range w.instances {
		out[k] = item{g: g, l: w.l}
	}
	return out
}

// replay times the greedy loop's layers: the first step's full
// candidate scan of every instance (apsp.RemovalDelta, the affected
// source count, Tracker.EvaluateWith), then whole runs of the first
// ops seeded with a warm store through Options.Distances, as the
// server runs them.
func (w *publish) replay(ctx context.Context, tr *tracer, ops []int) error {
	warm := make([]apsp.Store, len(w.instances))
	for k, g := range w.instances {
		m := apsp.Build(g, w.l, apsp.BuildOptions{})
		warm[k] = m
		types := opacity.NewDegreeTypes(g.Degrees())
		t := opacity.NewTracker(types, m)
		scratch := apsp.NewScratch(g.N())
		deltas := make([]int, types.NumTypes())
		edges := g.Edges()
		// The scan appends every candidate's changes to one flat buffer,
		// sized by an untimed first pass, so the timed pass allocates
		// nothing, like the anonymizer's reused buffers.
		var flat []opacity.PairChange
		offs := make([]int, len(edges)+1)
		scan := func() {
			flat = flat[:0]
			for j, e := range edges {
				apsp.RemovalDelta(g, m, e.U, e.V, scratch, func(x, y, oldD, newD int) {
					flat = append(flat, opacity.PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
				})
				offs[j+1] = len(flat)
			}
		}
		scan()
		tr.timed("apsp.removal_delta", len(edges), scan)
		tr.timed("opacity.evaluate_with", len(edges), func() {
			for j := range edges {
				t.EvaluateWith(flat[offs[j]:offs[j+1]], deltas)
			}
		})
		sources := 0
		for _, e := range edges {
			sources += len(apsp.AffectedRemovalSources(m, e.U, e.V))
		}
		tr.value("apsp.removal_sources", float64(sources))
	}
	for _, i := range ops[:min(len(ops), 24)] {
		inst, seed := w.job(i)
		opts := w.options(seed)
		opts.Distances = warm[inst]
		var res anonymize.Result
		var err error
		tr.timed("anonymize.run", 1, func() { res, err = anonymize.RunContext(ctx, w.instances[inst], opts) })
		if err != nil {
			return err
		}
		tr.value("anonymize.candidate_evals", float64(res.CandidateEvals))
		tr.value("anonymize.steps", float64(res.Steps))
	}
	return nil
}
