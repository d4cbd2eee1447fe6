// Package similarity implements the distribution- and workload-similarity
// estimators the paper proposes for positioning benchmark results on the
// Figure 1a X-axis (§V-D1): the Kolmogorov–Smirnov statistic and the
// Maximum Mean Discrepancy for data distributions, and the Jaccard
// similarity over query-plan subtree sets for workloads.
//
// The paper notes the Φ values "need not be precise, and it should be
// sufficient to sort the results by Φ value" — the package therefore
// guarantees stable ordering properties (tested) rather than tight
// numerical accuracy.
package similarity

import (
	"math"
	"sort"
)

// KS returns the two-sample Kolmogorov–Smirnov statistic between samples a
// and b: the maximum absolute difference between their empirical CDFs. It is
// 0 for identical distributions and approaches 1 for disjoint ones. Inputs
// are not modified. Empty inputs return 1 (maximally dissimilar) unless both
// are empty, which returns 0.
func KS(a, b []uint64) float64 {
	switch {
	case len(a) == 0 && len(b) == 0:
		return 0
	case len(a) == 0 || len(b) == 0:
		return 1
	}
	as := append([]uint64(nil), a...)
	bs := append([]uint64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })

	var d float64
	i, j := 0, 0
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		// Advance past ties on the smaller current value so both CDFs
		// are evaluated immediately after the step.
		if as[i] <= bs[j] {
			v := as[i]
			for i < len(as) && as[i] == v {
				i++
			}
			if v == bs[j] {
				for j < len(bs) && bs[j] == v {
					j++
				}
			}
		} else {
			v := bs[j]
			for j < len(bs) && bs[j] == v {
				j++
			}
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// MMD returns the (biased, V-statistic) Maximum Mean Discrepancy between
// samples a and b under an RBF kernel with the given bandwidth. If
// bandwidth <= 0 the median heuristic over the pooled sample is used.
// Samples are normalized to [0,1] over the pooled range first so the
// bandwidth is scale-free. Cost is O((|a|+|b|)^2); callers should subsample
// (see MMDSub).
func MMD(a, b []uint64, bandwidth float64) float64 {
	switch {
	case len(a) == 0 && len(b) == 0:
		return 0
	case len(a) == 0 || len(b) == 0:
		return 1
	}
	xs := normalize(a, b)
	ys := xs[len(a):]
	xs = xs[:len(a)]
	if bandwidth <= 0 {
		bandwidth = medianHeuristic(append(append([]float64(nil), xs...), ys...))
		if bandwidth <= 0 {
			bandwidth = 1e-3
		}
	}
	gamma := 1 / (2 * bandwidth * bandwidth)
	kxx := meanKernel(xs, xs, gamma)
	kyy := meanKernel(ys, ys, gamma)
	kxy := meanKernel(xs, ys, gamma)
	v := kxx + kyy - 2*kxy
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// MMDSub computes MMD over at most maxN evenly strided elements of each
// sample, bounding cost at O(maxN^2).
func MMDSub(a, b []uint64, bandwidth float64, maxN int) float64 {
	return MMD(subsample(a, maxN), subsample(b, maxN), bandwidth)
}

func subsample(xs []uint64, maxN int) []uint64 {
	if maxN <= 0 || len(xs) <= maxN {
		return xs
	}
	out := make([]uint64, 0, maxN)
	stride := float64(len(xs)) / float64(maxN)
	for i := 0; i < maxN; i++ {
		out = append(out, xs[int(float64(i)*stride)])
	}
	return out
}

func normalize(a, b []uint64) []float64 {
	lo, hi := a[0], a[0]
	for _, k := range a {
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	for _, k := range b {
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	span := float64(hi - lo)
	if span == 0 {
		span = 1
	}
	out := make([]float64, 0, len(a)+len(b))
	for _, k := range a {
		out = append(out, float64(k-lo)/span)
	}
	for _, k := range b {
		out = append(out, float64(k-lo)/span)
	}
	return out
}

func meanKernel(xs, ys []float64, gamma float64) float64 {
	var sum float64
	for _, x := range xs {
		for _, y := range ys {
			d := x - y
			sum += math.Exp(-gamma * d * d)
		}
	}
	return sum / float64(len(xs)*len(ys))
}

func medianHeuristic(xs []float64) float64 {
	// Median pairwise distance over a stride-limited subset.
	const cap = 200
	if len(xs) > cap {
		sub := make([]float64, 0, cap)
		stride := float64(len(xs)) / cap
		for i := 0; i < cap; i++ {
			sub = append(sub, xs[int(float64(i)*stride)])
		}
		xs = sub
	}
	dists := make([]float64, 0, len(xs)*(len(xs)-1)/2)
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			dists = append(dists, math.Abs(xs[i]-xs[j]))
		}
	}
	if len(dists) == 0 {
		return 0
	}
	sort.Float64s(dists)
	return dists[len(dists)/2]
}

// Jaccard returns |a ∩ b| / |a ∪ b| for two string sets. It is 1 for equal
// sets and 0 for disjoint ones; two empty sets are defined as similarity 1.
func Jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
