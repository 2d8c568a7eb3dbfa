package apsp

import (
	"fmt"
	"os"
	"testing"
)

// RMAT build benchmarks: the perf-trajectory suite behind BENCH_*.json
// (cmd/lopbench runs these in-process). The default sizes finish in CI;
// the 100k-vertex / ~1M-edge headline runs only when LOPBENCH_LARGE=1,
// because the full build is a multi-minute, multi-gigabyte job.

const benchL = 3

// benchSizes returns the (n, m) grid to benchmark: the CI scale
// always, the paper-scale point only when LOPBENCH_LARGE=1.
func benchSizes() [][2]int {
	sizes := [][2]int{{5_000, 50_000}}
	if os.Getenv("LOPBENCH_LARGE") == "1" {
		sizes = append(sizes, [2]int{100_000, 1_000_000})
	}
	return sizes
}

func benchName(n, m int) string {
	return fmt.Sprintf("n%d_m%d", n, m)
}

func BenchmarkBuildRMATCSR(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BoundedAPSPKind(g, benchL, KindCompact)
			}
		})
	}
}

func BenchmarkBuildRMATMapBaseline(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BoundedAPSPMapBaseline(g, benchL, KindCompact)
			}
		})
	}
}

func BenchmarkBuildRMATBitBFS(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BitBFSKind(g, benchL, KindCompact)
			}
		})
	}
}

// BenchmarkCSRFrozen isolates the snapshot cost the CSR engines pay up
// front — it must stay a small fraction of the sweep it accelerates.
// Frozen memoizes its snapshot, so each op first toggles one edge to
// drop the memo and measure a rebuild.
func BenchmarkCSRFrozen(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		e := g.Edges()[0]
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.RemoveEdge(e.U, e.V)
				g.AddEdge(e.U, e.V)
				g.Frozen()
			}
		})
	}
}

// BenchmarkBFSInnerLoop measures one bounded-BFS source sweep plus its
// touched-only reset on a prebuilt CSR — the engine inner loop. The
// headline claim is the allocs/op column: zero.
func BenchmarkBFSInnerLoop(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		c := g.Frozen()
		n := c.N()
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		queue := make([]int32, 0, n)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			src := 0
			for i := 0; i < b.N; i++ {
				visited := c.BoundedBFSInto(src, benchL, dist, queue)
				for _, v := range visited {
					dist[v] = -1
				}
				queue = visited[:0]
				src++
				if src == n {
					src = 0
				}
			}
		})
	}
}

var benchStoreSink Store

// BenchmarkBuildAuto is the engine-selection default the server runs.
func BenchmarkBuildAuto(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchStoreSink = Build(g, benchL, BuildOptions{})
			}
		})
	}
}
