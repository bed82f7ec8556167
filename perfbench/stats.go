package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// dist is a sorted set of raw samples. Percentiles are order statistics
// of the samples themselves; nothing is interpolated inside histogram
// buckets.
type dist []time.Duration

func newDist(xs []time.Duration) dist {
	d := dist(slices.Clone(xs))
	slices.Sort(d)
	return d
}

// rank is the 1-based nearest rank of the q-quantile among n samples;
// the epsilon keeps 0.9*100 from rounding up to rank 91.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least a share q of the samples at or below it. Zero when empty.
func (d dist) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[rank(q, len(d))-1]
}

// supports reports whether the sample has at least ten values ranked
// beyond its q-quantile, so the tail is measured rather than read off
// the max.
func (d dist) supports(q float64) bool { return len(d) > 0 && len(d)-rank(q, len(d)) >= 10 }

// tail returns the highest of p99.9, p99, p95, p90 and p50 that the
// sample supports, and its label.
func (d dist) tail() (string, time.Duration) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90} {
		if d.supports(q) {
			return fmt.Sprintf("p%g", q*100), d.quantile(q)
		}
	}
	return "p50", d.quantile(0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianf returns the median of xs (the lower middle for even counts is
// averaged with the upper one).
func medianf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
