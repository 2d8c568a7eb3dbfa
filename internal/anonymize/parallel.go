package anonymize

import (
	"sync"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// Candidate scans dominate the heuristics' cost and are embarrassingly
// parallel: evaluating one candidate never depends on another. This
// file provides a parallel scan that preserves the sequential
// semantics bit-for-bit — workers only fill an evaluations array, and
// the reservoir tie-break then consumes it in the original candidate
// order with the original seeded RNG, so a run with Workers = 8 picks
// exactly the edges a run with Workers = 1 picks.
//
// Both delta kernels are pure readers: InsertionDelta reads only the
// distance store, and RemovalDelta recomputes with the candidate edge
// masked out of the BFS instead of toggling it, so the working graph,
// its memoized CSR snapshot (one per committed step) and the store are
// shared read-only across every worker — no clones.
// The only per-worker state is a workerState of O(n) scratch buffers,
// allocated once per lane for the lifetime of the run and reused
// across every greedy step, so steady-state candidate scans allocate
// nothing.

// workerState is one evaluation lane's private scratch: reused across
// candidates within a scan and across scans within a run.
type workerState struct {
	scratch *apsp.Scratch
	deltas  []int
	changes []opacity.PairChange
}

// workerStates returns w lanes of per-worker scratch, growing the
// state's pool on first use (and when Workers changes mid-run, which
// the public API does not allow but costs nothing to tolerate).
func (s *state) workerStates(w int) []*workerState {
	for len(s.pool) < w {
		s.pool = append(s.pool, &workerState{
			scratch: apsp.NewScratch(s.g.N()),
			deltas:  make([]int, len(s.deltas)),
		})
	}
	return s.pool[:w]
}

// workers resolves the configured parallelism: Options.Workers when it
// is greater than 1, else 1 (sequential). Workers = 1 is sequential by
// definition, and the zero value deliberately shares that path — a
// single lane through the parallel machinery would only add goroutine
// overhead, so the two settings are exact equivalents (a cross-worker
// test asserts it). The count is not capped at GOMAXPROCS: extra
// goroutines cost little, and honoring the requested fan-out keeps the
// concurrent code path exercised (and race-checkable) even on small
// machines.
func (s *state) workers() int {
	if w := s.opts.Workers; w > 1 {
		return w
	}
	return 1
}

// evalRemovals fills evs[i] with the evaluation of removing
// candidates[i] from the current graph, in parallel when configured.
func (s *state) evalRemovals(candidates []graph.Edge, evs []opacity.Evaluation) {
	w := s.workers()
	if w == 1 || len(candidates) < 2*w {
		for i, e := range candidates {
			evs[i] = s.normalize(s.tr.EvaluateWith(s.removalChanges(e), s.deltas))
		}
		s.evals += int64(len(candidates))
		return
	}
	pool := s.workerStates(w)
	var wg sync.WaitGroup
	chunk := (len(candidates) + w - 1) / w
	lane := 0
	for start := 0; start < len(candidates); start += chunk {
		end := start + chunk
		if end > len(candidates) {
			end = len(candidates)
		}
		ws := pool[lane]
		lane++
		wg.Add(1)
		go func(start, end int, ws *workerState) {
			defer wg.Done()
			for i := start; i < end; i++ {
				e := candidates[i]
				ws.changes = ws.changes[:0]
				apsp.RemovalDelta(s.g, s.m, e.U, e.V, ws.scratch, func(x, y, oldD, newD int) {
					ws.changes = append(ws.changes, opacity.PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
				})
				evs[i] = s.normalize(s.tr.EvaluateWith(ws.changes, ws.deltas))
			}
		}(start, end, ws)
	}
	wg.Wait()
	s.evals += int64(len(candidates))
}

// evalInsertions fills evs[i] with the evaluation of inserting
// candidates[i], in parallel when configured.
func (s *state) evalInsertions(candidates []graph.Edge, evs []opacity.Evaluation) {
	w := s.workers()
	if w == 1 || len(candidates) < 2*w {
		for i, e := range candidates {
			evs[i] = s.normalize(s.tr.EvaluateWith(s.insertionChanges(e), s.deltas))
		}
		s.evals += int64(len(candidates))
		return
	}
	pool := s.workerStates(w)
	var wg sync.WaitGroup
	chunk := (len(candidates) + w - 1) / w
	lane := 0
	for start := 0; start < len(candidates); start += chunk {
		end := start + chunk
		if end > len(candidates) {
			end = len(candidates)
		}
		ws := pool[lane]
		lane++
		wg.Add(1)
		go func(start, end int, ws *workerState) {
			defer wg.Done()
			for i := start; i < end; i++ {
				e := candidates[i]
				ws.changes = ws.changes[:0]
				apsp.InsertionDeltaScratch(s.m, e.U, e.V, ws.scratch, func(x, y, oldD, newD int) {
					ws.changes = append(ws.changes, opacity.PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
				})
				evs[i] = s.normalize(s.tr.EvaluateWith(ws.changes, ws.deltas))
			}
		}(start, end, ws)
	}
	wg.Wait()
	s.evals += int64(len(candidates))
}
