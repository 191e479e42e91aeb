package main

import (
	"math"
	"sort"
)

// tailSamples is the "ten samples beyond" rule of the choosing-metrics
// guide: a percentile is only trustworthy when at least this many samples
// lie beyond it.
const tailSamples = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesBeyond reports how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// trustedPercentile reports whether the p-th percentile of n samples has at
// least tailSamples samples beyond it (p90 needs n >= 100).
func trustedPercentile(n int, p float64) bool {
	return samplesBeyond(n, p) >= tailSamples
}

// median returns the median of xs (mean of the two middle values for an even
// count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// madShare returns the median absolute deviation of xs as a share of their
// median: the run's own round-to-round noise figure.
func madShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev) / math.Abs(m)
}

// quartiles returns the first and third quartile of xs by the exclusive
// method, which is what Python's statistics.quantiles(xs, n=4) computes and
// therefore what the acceptance driver applies to a set of runs. Fewer than
// two samples have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	m := len(s)
	at := func(i int) float64 {
		// CPython: j = i*(m+1)//4 clamped to [1, m-1], then interpolate (or
		// extrapolate, for tiny samples) between s[j-1] and s[j].
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of xs as a share of their median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
