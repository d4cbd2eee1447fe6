// Package search provides allocation-free, branch-predictable binary
// search kernels over sorted uint64 slices — the last-mile primitives of
// every index hot path in the benchmark.
//
// The generic sort.Search costs a non-inlinable closure call per probe.
// At SOSD scale (100M+ keys, "Benchmarking Learned Indexes") the
// last-mile search dominates lookup latency, so these kernels are written
// to inline into their callers and run the tightest possible halving loop.
// Two formulations were measured head-to-head (see BenchmarkBoundedWindow
// and the BenchmarkLarge* tier): a CMOV/branchless variant that
// conditionally advances a base pointer, and the branchy inline form used
// here. The branchy form wins on cold, large windows — the predicted
// branch lets the CPU speculate past the comparison and overlap the next
// probe's cache miss, while a conditional move serializes the load chain
// — and ties on warm, small windows, so it is the one we keep. An
// interpolation kernel was measured too and lost at every window size
// (EXPERIMENTS.md, "Kernel choice, measured"); it is gone.
//
// Every kernel is semantically pinned to its sort.Search formulation:
// LowerBound(a, k) == sort.Search(len(a), func(i) bool { return a[i] >= k })
// and UpperBound(a, k) == sort.Search(len(a), func(i) bool { return a[i] > k }),
// including empty slices, duplicate keys, and out-of-range keys. The
// property and fuzz tests in this package enforce index-exact equivalence,
// which is what keeps the virtual-clock golden outputs byte-identical
// after the hot paths were rewritten.
package search

// LowerBound returns the smallest index i in [0, len(a)] such that
// a[i] >= key (len(a) when no such element exists). a must be sorted
// ascending. Equivalent to sort.SearchUint64s-style lower-bound semantics:
// with duplicates it returns the first occurrence.
func LowerBound(a []uint64, key uint64) int {
	// Closure-free halving loop. The data-dependent branch is deliberate:
	// on out-of-cache windows the branch predictor's speculation overlaps
	// the next probe's memory latency, which beats a CMOV formulation
	// whose loads form a serial dependency chain (measured on the
	// BenchmarkLarge* tier: ~12% faster cold lookups at 10M keys).
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// UpperBound returns the smallest index i in [0, len(a)] such that
// a[i] > key (len(a) when no such element exists). a must be sorted
// ascending. With duplicates it returns one past the last occurrence.
func UpperBound(a []uint64, key uint64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// LowerBoundRange returns the smallest index i in [lo, hi] such that
// a[i] >= key (hi when no such element exists in a[lo:hi]). It is
// LowerBound restricted to the window [lo, hi) — the bounded last-mile
// search of a learned index whose model guarantees the answer lies within
// its error window. lo and hi must satisfy 0 <= lo <= hi <= len(a).
func LowerBoundRange(a []uint64, lo, hi int, key uint64) int {
	return lo + LowerBound(a[lo:hi], key)
}
