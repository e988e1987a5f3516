package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the "percentile" is a handful of outliers and does
// not repeat run to run.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= n {
		hi = n - 1
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// tailSupported reports whether the p-th percentile of n samples has at
// least minBeyond samples beyond it.
func tailSupported(n int, p float64) bool {
	// The tolerance keeps 10000 samples at p99.9 (9.999... in floating point)
	// on the supported side.
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// highestTail returns the highest of the candidate percentiles that n
// samples support, or 0 when none is supported (the caller then reports the
// median only).
func highestTail(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if p > best && tailSupported(n, p) {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles returns Q1, median, Q3 with the same method as Python's
// statistics.quantiles(v, n=4) (exclusive), which is what the acceptance
// rule for run-to-run spread is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
