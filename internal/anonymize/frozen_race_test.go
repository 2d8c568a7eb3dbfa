package anonymize

import (
	"context"
	"sync"
	"testing"

	"repro/internal/opacity"
)

// TestParallelScanSharesFrozenSnapshot: a Workers=8 removal scan reads
// one working graph whose CSR snapshot the lanes freeze on demand,
// while other goroutines call Frozen on the same graph. Each step
// starts from a dropped snapshot (the commit before it mutated the
// graph), so the lanes race to rebuild it. The parallel evaluations
// must equal the sequential ones. Run with -race.
func TestParallelScanSharesFrozenSnapshot(t *testing.T) {
	g := randomGraph(60, 0.12, 5)
	s, err := newState(context.Background(), g, Options{L: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		s.commitRemoval(s.removalCandidates(nil)[0])
		candidates := s.removalCandidates(nil)
		got := make([]opacity.Evaluation, len(candidates))
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if c := s.g.Frozen(); c.M() != len(candidates) {
						t.Errorf("step %d: snapshot has %d edges, graph %d", step, c.M(), len(candidates))
						return
					}
				}
			}()
		}
		s.evalRemovals(candidates, got)
		wg.Wait()
		for i, e := range candidates {
			if want := s.tr.EvaluateWith(s.removalChanges(e), s.deltas); got[i] != want {
				t.Fatalf("step %d: parallel evaluation of %v is %+v, sequential %+v", step, e, got[i], want)
			}
		}
	}
}
