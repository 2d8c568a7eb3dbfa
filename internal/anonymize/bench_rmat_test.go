package anonymize

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/gen"
)

// BenchmarkAnonymizeRMATGreedy runs a capped greedy removal on an RMAT
// graph — the end-to-end serving workload the CSR engine, non-mutating
// removal deltas, and per-worker scratch reuse accelerate. The default
// size finishes in CI; LOPBENCH_LARGE=1 adds a heavier point.
func BenchmarkAnonymizeRMATGreedy(b *testing.B) {
	sizes := [][2]int{{150, 450}}
	if os.Getenv("LOPBENCH_LARGE") == "1" {
		sizes = append(sizes, [2]int{500, 1_500})
	}
	for _, sz := range sizes {
		g, err := gen.RMAT(sz[0], sz[1], gen.WebRMAT(), rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchSizeName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := Run(g, Options{
					L:        3,
					Theta:    0.0, // unreachable: always run the full step cap
					MaxSteps: 2,
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchSizeName(n, m int) string {
	return fmt.Sprintf("n%d_m%d", n, m)
}

// BenchmarkAnonymizeSeededVsFresh runs the publish workload's job — a
// greedy removal run on gnutella100 at L=2, theta=0.5 — once from a
// fresh APSP build and once seeded with a prebuilt store through
// Options.Distances, the copy-on-write Overlay path the server takes.
// The seeded run skips the build, so it should never be the slower one.
func BenchmarkAnonymizeSeededVsFresh(b *testing.B) {
	g, err := dataset.GenerateByKey("gnutella100", 1)
	if err != nil {
		b.Fatal(err)
	}
	warm := apsp.Build(g, 2, apsp.BuildOptions{})
	for _, seeded := range []bool{false, true} {
		name := "fresh"
		opts := Options{L: 2, Theta: 0.5, Seed: 1}
		if seeded {
			name = "seeded"
			opts.Distances = warm
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
