package apsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestInsertionDeltaPath(t *testing.T) {
	// Path 0-1-2-3; inserting 0-3 closes the cycle.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	m := BoundedAPSP(g, 3)
	changed := map[[2]int][2]int{}
	InsertionDelta(m, 0, 3, func(x, y, oldD, newD int) {
		changed[[2]int{x, y}] = [2]int{oldD, newD}
	})
	want := map[[2]int][2]int{
		{0, 3}: {3, 1},
		{0, 2}: {2, 2}, // unchanged, must be absent
	}
	if got, ok := changed[[2]int{0, 3}]; !ok || got != want[[2]int{0, 3}] {
		t.Fatalf("pair (0,3): got %v changed=%v", got, changed)
	}
	if _, ok := changed[[2]int{0, 2}]; ok {
		t.Fatal("pair (0,2) reported changed but distance is unchanged")
	}
	// d(1,3) stays 2 (1-2-3 vs 1-0-3 both length 2): no change.
	if _, ok := changed[[2]int{1, 3}]; ok {
		t.Fatal("pair (1,3) reported changed")
	}
}

func TestApplyInsertionMatchesRecompute(t *testing.T) {
	g := randomGraph(14, 0.15, 9)
	L := 3
	m := BoundedAPSP(g, L)
	// Pick an absent edge deterministically.
	var u, v int
	found := false
	for i := 0; i < 14 && !found; i++ {
		for j := i + 1; j < 14 && !found; j++ {
			if !g.HasEdge(i, j) {
				u, v = i, j
				found = true
			}
		}
	}
	if !found {
		t.Skip("graph is complete")
	}
	ApplyInsertion(m, u, v)
	g.AddEdge(u, v)
	if want := BoundedAPSP(g, L); !Equal(m, want) {
		t.Fatal("ApplyInsertion disagrees with full recomputation")
	}
}

func TestRemovalDeltaRestoresGraph(t *testing.T) {
	g := randomGraph(10, 0.3, 3)
	before := g.Clone()
	m := BoundedAPSP(g, 2)
	e := g.Edges()[0]
	RemovalDelta(g, m, e.U, e.V, nil, func(x, y, oldD, newD int) {})
	if !g.Equal(before) {
		t.Fatal("RemovalDelta left the graph mutated")
	}
}

func TestRemovalDeltaAbsentEdgePanics(t *testing.T) {
	g := graph.New(3)
	m := BoundedAPSP(g, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("RemovalDelta on absent edge did not panic")
		}
	}()
	RemovalDelta(g, m, 0, 1, nil, nil)
}

func TestApplyRemovalMatchesRecompute(t *testing.T) {
	g := randomGraph(14, 0.2, 21)
	L := 3
	m := BoundedAPSP(g, L)
	if g.M() == 0 {
		t.Skip("no edges")
	}
	e := g.Edges()[g.M()/2]
	ApplyRemoval(g, m, e.U, e.V, nil)
	g.RemoveEdge(e.U, e.V)
	if want := BoundedAPSP(g, L); !Equal(m, want) {
		t.Fatal("ApplyRemoval disagrees with full recomputation")
	}
}

func TestPropertyInsertionDeltaExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.2, seed)
		m := BoundedAPSP(g, L)
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			return true
		}
		ApplyInsertion(m, u, v)
		g.AddEdge(u, v)
		return Equal(m, BoundedAPSP(g, L))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRemovalDeltaExact(t *testing.T) {
	scratch := NewScratch(20)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		if g.M() == 0 {
			return true
		}
		m := BoundedAPSP(g, L)
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		sc := scratch
		if n > 20 {
			sc = nil
		}
		ApplyRemoval(g, m, e.U, e.V, sc)
		g.RemoveEdge(e.U, e.V)
		return Equal(m, BoundedAPSP(g, L))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRemovalOnlyLengthens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		if g.M() == 0 {
			return true
		}
		m := BoundedAPSP(g, L)
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		ok := true
		RemovalDelta(g, m, e.U, e.V, nil, func(x, y, oldD, newD int) {
			if newD <= oldD {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInsertionOnlyShortens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.2, seed)
		m := BoundedAPSP(g, L)
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			return true
		}
		ok := true
		InsertionDelta(m, u, v, func(x, y, oldD, newD int) {
			if newD >= oldD || newD > L {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAffectedRemovalSourcesCoverChanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		if g.M() == 0 {
			return true
		}
		m := BoundedAPSP(g, L)
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		sources := AffectedRemovalSources(m, e.U, e.V)
		inSources := make(map[int]bool)
		for _, s := range sources {
			inSources[s] = true
		}
		g.RemoveEdge(e.U, e.V)
		after := BoundedAPSP(g, L)
		g.AddEdge(e.U, e.V)
		ok := true
		m.EachPair(func(i, j, d int) {
			if after.Get(i, j) != d && !inSources[i] && !inSources[j] {
				ok = false // a changed pair escaped the affected set
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRemovalDelta checks the crossing-set removal kernel against the
// BoundedAPSP oracle on small random graphs (n <= 24, L in 1..4). Each
// input is replayed on a compact store, a packed store, and an Overlay
// whose dirty rows come from up to three earlier ApplyRemovals, as a
// seeded anonymization run leaves them. For every store the reported
// pairs must be exactly the oracle's before/after diff, each once, with
// x < y and old < new, and every one must have exactly one endpoint in
// AffectedRemovalSources — the side the kernel sweeps.
func FuzzRemovalDelta(f *testing.F) {
	for _, in := range []struct {
		seed                   int64
		n, l, density, earlier uint8
	}{
		{1, 7, 1, 90, 0}, {2, 12, 2, 60, 1}, {3, 18, 3, 40, 2}, {4, 24, 4, 25, 3},
		{5, 24, 2, 120, 2}, {6, 20, 3, 15, 0}, {7, 9, 4, 200, 3}, {8, 16, 1, 70, 1},
	} {
		f.Add(in.seed, in.n, in.l, in.density, in.earlier)
	}
	f.Fuzz(func(t *testing.T, seed int64, nIn, lIn, density, earlier uint8) {
		n := 2 + int(nIn)%23
		L := 1 + int(lIn)%4
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(n, float64(density)/255, seed)

		// Earlier removals dirty the overlay; g loses the same edges.
		o := NewOverlay(BoundedAPSPKind(g, L, KindCompact))
		for k := 0; k < int(earlier)%4 && g.M() > 1; k++ {
			edges := g.Edges()
			e := edges[rng.Intn(len(edges))]
			ApplyRemoval(g, o, e.U, e.V, nil)
			g.RemoveEdge(e.U, e.V)
		}
		if g.M() == 0 {
			return
		}
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		before := BoundedAPSP(g, L)
		if !Equal(o, before) {
			t.Fatal("overlay after earlier removals disagrees with BoundedAPSP")
		}
		without := g.Clone()
		without.RemoveEdge(e.U, e.V)
		after := BoundedAPSP(without, L)
		want := 0
		before.EachPair(func(i, j, d int) {
			if after.Get(i, j) != d {
				want++
			}
		})

		for name, m := range map[string]Store{
			"compact": BoundedAPSPKind(g, L, KindCompact),
			"packed":  BoundedAPSPKind(g, L, KindPacked),
			"overlay": o,
		} {
			side := map[int]bool{}
			for _, x := range AffectedRemovalSources(m, e.U, e.V) {
				side[x] = true
			}
			seen := map[[2]int]bool{}
			RemovalDelta(g, m, e.U, e.V, nil, func(x, y, oldD, newD int) {
				p := [2]int{x, y}
				switch {
				case x >= y:
					t.Fatalf("%s: pair reported as (%d, %d), want x < y", name, x, y)
				case seen[p]:
					t.Fatalf("%s: pair (%d, %d) reported twice", name, x, y)
				case oldD >= newD:
					t.Fatalf("%s: pair (%d, %d) reported %d -> %d, want old < new", name, x, y, oldD, newD)
				case oldD != before.Get(x, y) || newD != after.Get(x, y):
					t.Fatalf("%s: pair (%d, %d) reported %d -> %d, oracle %d -> %d",
						name, x, y, oldD, newD, before.Get(x, y), after.Get(x, y))
				case side[x] == side[y]:
					t.Fatalf("%s: pair (%d, %d) does not cross the swept side %v", name, x, y, side)
				}
				seen[p] = true
			})
			if len(seen) != want {
				t.Fatalf("%s: removing {%d,%d} at L=%d reported %d changed pairs, oracle has %d",
					name, e.U, e.V, L, len(seen), want)
			}
		}
	})
}

// TestRemovalDeltaZeroAllocs: with a reused Scratch and a memoized
// snapshot, scoring a candidate removal allocates nothing.
func TestRemovalDeltaZeroAllocs(t *testing.T) {
	g := randomGraph(60, 0.08, 3)
	m := BoundedAPSP(g, 3)
	o := NewOverlay(m)
	scratch := NewScratch(g.N())
	edges := g.Edges()
	var changed int
	visit := func(_, _, _, _ int) { changed++ }
	for _, s := range []Store{m, o} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, e := range edges {
				RemovalDelta(g, s, e.U, e.V, scratch, visit)
			}
		})
		if allocs != 0 {
			t.Fatalf("RemovalDelta allocates %.1f objects per scan, want 0", allocs)
		}
	}
	if changed == 0 {
		t.Fatal("no candidate changed any pair; the scan measured nothing")
	}
}

var benchChanged int

// BenchmarkRemovalDeltaOverlay scores candidate removals against an
// Overlay whose rows were dirtied by committed removals — the store a
// seeded anonymization run works on in the server (a cached store plus
// the run's sparse edits). One op is one candidate.
func BenchmarkRemovalDeltaOverlay(b *testing.B) {
	g := rmatGraph(b, 1_000, 4_000, 42)
	const L = 2
	o := NewOverlay(Build(g, L, BuildOptions{}))
	scratch := NewScratch(g.N())
	for _, e := range g.Edges()[:16] {
		ApplyRemoval(g, o, e.U, e.V, scratch)
		g.RemoveEdge(e.U, e.V)
	}
	edges := g.Edges()
	visit := func(_, _, _, _ int) { benchChanged++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		RemovalDelta(g, o, e.U, e.V, scratch, visit)
	}
}
