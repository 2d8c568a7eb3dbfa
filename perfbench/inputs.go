package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/api"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// item is one working-set graph at the L it is queried at.
type item struct {
	g *graph.Graph
	l int
}

func pairs(es []graph.Edge) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// mix derives an independent 64-bit stream value from the workload
// seed and an index (splitmix64), so op i is the same in every run with
// the same seed no matter which client runs it.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputStream offsets the indices that draw a workload's inputs, so
// they never share a stream with op i's draws.
const inputStream = 1 << 32

func rngFor(seed int64, i int) *rand.Rand { return rand.New(rand.NewSource(int64(mix(seed, i) >> 1))) }

// fingerprint hashes an answer's fields in a fixed order; the server's
// answer and the oracle's are compared by fingerprint.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) int(v int) *fingerprint {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	f.h.Write(b[:])
	return f
}

func (f *fingerprint) float(v float64) *fingerprint { return f.int(int(math.Float64bits(v))) }

func (f *fingerprint) bool(v bool) *fingerprint {
	if v {
		return f.int(1)
	}
	return f.int(0)
}

func (f *fingerprint) str(s string) *fingerprint {
	f.int(len(s))
	f.h.Write([]byte(s))
	return f
}

func (f *fingerprint) pairs(ps [][2]int) *fingerprint {
	f.int(len(ps))
	for _, p := range ps {
		f.int(p[0]).int(p[1])
	}
	return f
}

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }

// opacityAnswer fingerprints an opacity response.
func opacityAnswer(r *api.OpacityResponse) uint64 {
	f := newFingerprint().int(r.L).float(r.MaxOpacity).int(len(r.Types))
	for _, t := range r.Types {
		f.str(t.Label).int(t.Within).int(t.Total).float(t.Opacity)
	}
	return f.sum()
}

// opacityOracle fingerprints the library's report the way
// opacityAnswer fingerprints the server's.
func opacityOracle(rep opacity.Report) uint64 {
	f := newFingerprint().int(rep.L).float(rep.MaxLO).int(len(rep.ByType))
	for _, t := range rep.ByType {
		f.str(t.Label).int(t.Within).int(t.Total).float(t.Opacity)
	}
	return f.sum()
}
