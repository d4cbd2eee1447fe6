package main

import (
	"math"
	"slices"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (exclusive method), so the
// spreads this program prints are the ones a harness computing them in
// Python sees. v is not modified. With fewer than two values all three are
// the single value (or 0 for none).
func quartiles(v []float64) (q1, med, q3 float64) {
	switch len(v) {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle value of v (mean of the middle two for even counts).
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample by nearest rank, reading the raw sample (no bucketing) so the value
// keeps every digit that was measured.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile picks the highest of p90, p99, p99.9, p99.99 that still has
// at least ten samples beyond it in a sample of n — a tail figure resting on
// fewer is one outlier, not a percentile. Samples too small for p90 fall
// back to the median.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, tail := range []int{10, 100, 1000, 10000} { // one sample in tail lies beyond
		if n/tail >= 10 {
			best = 1 - 1/float64(tail)
		}
	}
	return best
}

// quietest returns, element by element, the smallest value the equally long
// series hold. The series are repetitions of the same deterministic work, so
// element i is the same piece of work in each; what differs between them is
// only what the machine did to the process meanwhile, which can add time and
// never removes any.
func quietest(series [][]int64) []int64 {
	if len(series) == 0 {
		return nil
	}
	best := append([]int64(nil), series[0]...)
	for _, s := range series[1:] {
		for i := range best {
			if i < len(s) && s[i] < best[i] {
				best[i] = s[i]
			}
		}
	}
	return best
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func meanInt64(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

func sumInt64(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is a/b with 0 for an empty base: layers that do no work on a
// workload report 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
