package anonymize

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenRun is one pinned anonymization outcome: the committed edge
// operations and the step and candidate-evaluation counts.
type goldenRun struct {
	removed, inserted [][2]int
	steps             int
	evals             int64
}

func edgePairs(es []graph.Edge) [][2]int {
	var out [][2]int
	for _, e := range es {
		out = append(out, [2]int{e.U, e.V})
	}
	return out
}

func (r goldenRun) String() string {
	return fmt.Sprintf("removed=%v inserted=%v steps=%d evals=%d", r.removed, r.inserted, r.steps, r.evals)
}

func checkGolden(t *testing.T, name string, res Result, want goldenRun) {
	t.Helper()
	got := goldenRun{edgePairs(res.Removed), edgePairs(res.Inserted), res.Steps, res.CandidateEvals}
	if !slices.Equal(got.removed, want.removed) || !slices.Equal(got.inserted, want.inserted) ||
		got.steps != want.steps || got.evals != want.evals {
		t.Errorf("%s:\n got %v\nwant %v", name, got, want)
	}
}

// TestGoldenRuns pins whole greedy runs to outcomes recorded before the
// removal-delta kernel moved onto the crossing sets of the frozen CSR
// snapshot: which edges are removed and inserted, in order, and how
// many steps and candidate evaluations it takes. Each gnutella100 row
// (L=2, theta=0.5, run seed = dataset seed) must hold fresh and seeded
// through Options.Distances, with 1 and 4 workers. Rem rows run to
// completion; Rem-Ins rows stop after 6 steps — enough for look-ahead
// to change the choice on seed 1 — because Rem-Ins's O(n^2) insertion
// scans would otherwise dominate the package's test time.
func TestGoldenRuns(t *testing.T) {
	rows := []struct {
		h         Heuristic
		seed      int64
		lookAhead int
		maxSteps  int
		removed   [][2]int
		inserted  [][2]int
		steps     int
		evals     int64
	}{
		{Removal, 1, 1, 0, [][2]int{{68, 96}, {21, 78}, {78, 96}, {3, 78}, {18, 62}, {18, 45}, {51, 92}, {79, 83}, {3, 62}, {62, 96}, {7, 13}, {55, 68}, {41, 81}, {87, 98}, {5, 24}, {3, 12}, {2, 97}, {3, 60}, {0, 71}, {10, 94}, {48, 68}, {3, 22}, {9, 10}, {10, 96}, {10, 14}, {16, 56}, {3, 17}, {21, 70}, {41, 69}, {50, 96}, {43, 88}, {7, 52}, {56, 71}, {24, 53}, {13, 89}, {64, 96}, {7, 96}, {11, 78}, {9, 28}, {3, 96}, {3, 91}, {43, 44}, {3, 37}, {41, 96}, {21, 96}}, nil, 45, 4230},
		{Removal, 1, 2, 0, [][2]int{{68, 96}, {21, 78}, {78, 96}, {3, 78}, {18, 62}, {3, 62}, {62, 96}, {7, 78}, {11, 96}, {21, 96}, {41, 68}, {49, 82}, {78, 82}, {50, 55}, {36, 44}, {32, 92}, {22, 47}, {3, 12}, {3, 91}, {3, 96}, {41, 96}}, nil, 17, 60291},
		{Removal, 2, 1, 0, [][2]int{{45, 88}, {43, 45}}, nil, 2, 231},
		{Removal, 2, 2, 0, [][2]int{{45, 88}, {43, 45}}, nil, 2, 231},
		{Removal, 3, 1, 0, [][2]int{{8, 90}, {8, 70}, {70, 81}, {15, 86}, {16, 70}, {45, 97}, {9, 66}, {66, 80}, {9, 70}, {16, 90}}, nil, 10, 1115},
		{Removal, 3, 2, 0, [][2]int{{8, 90}, {8, 70}, {70, 81}, {15, 86}, {16, 70}, {45, 97}, {9, 66}, {66, 80}, {9, 70}, {16, 90}}, nil, 10, 1115},
		{RemovalInsertion, 1, 1, 6, [][2]int{{68, 96}, {56, 62}, {21, 68}, {41, 96}, {29, 36}, {9, 28}}, [][2]int{{45, 92}, {15, 67}, {27, 84}, {82, 92}, {7, 46}, {4, 50}}, 6, 29670},
		{RemovalInsertion, 1, 2, 6, [][2]int{{68, 96}, {56, 62}, {21, 68}, {41, 96}, {3, 62}, {62, 96}, {21, 78}, {78, 96}}, [][2]int{{45, 92}, {15, 67}, {27, 84}, {82, 92}, {62, 94}, {11, 30}}, 6, 41880},
		{RemovalInsertion, 2, 1, 6, [][2]int{{45, 88}, {43, 45}}, [][2]int{{6, 51}, {50, 74}}, 2, 9898},
		{RemovalInsertion, 2, 2, 6, [][2]int{{45, 88}, {43, 45}}, [][2]int{{6, 51}, {50, 74}}, 2, 9898},
		{RemovalInsertion, 3, 1, 6, [][2]int{{8, 90}, {8, 70}, {16, 70}, {45, 97}, {10, 15}, {9, 16}}, [][2]int{{17, 21}, {24, 45}, {5, 8}, {9, 51}, {11, 35}, {87, 93}}, 6, 29670},
		{RemovalInsertion, 3, 2, 6, [][2]int{{8, 90}, {8, 70}, {16, 70}, {45, 97}, {10, 15}, {9, 16}}, [][2]int{{17, 21}, {24, 45}, {5, 8}, {9, 51}, {11, 35}, {87, 93}}, 6, 29670},
	}
	for _, r := range rows {
		g, err := dataset.GenerateByKey("gnutella100", r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenRun{r.removed, r.inserted, r.steps, r.evals}
		for _, seeded := range []bool{false, true} {
			for _, w := range []int{1, 4} {
				opts := Options{L: 2, Theta: 0.5, Heuristic: r.h, LookAhead: r.lookAhead, MaxSteps: r.maxSteps, Seed: r.seed, Workers: w}
				if seeded {
					opts.Distances = apsp.Build(g, 2, apsp.BuildOptions{})
				}
				res, err := Run(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, fmt.Sprintf("%v seed=%d la=%d seeded=%v workers=%d", r.h, r.seed, r.lookAhead, seeded, w), res, want)
			}
		}
	}

	// lopbench's anonymize_greedy configuration.
	g, err := gen.RMAT(150, 450, gen.WebRMAT(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{L: 3, MaxSteps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rmat 150/450 L=3", res, goldenRun{[][2]int{{0, 76}, {0, 45}}, nil, 2, 899})
}
