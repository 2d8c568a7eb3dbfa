package main

import (
	"math"
	"slices"
	"time"
)

// latencies returns the successful ops' latencies, sorted. Failed ops
// are left out: they count in error_rate instead.
func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// percentile is the nearest-rank quantile q of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// beyond counts the samples above the nearest-rank quantile q.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// median of vs; 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
