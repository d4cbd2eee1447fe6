// Package metrics implements the measurement machinery the paper proposes
// for learned-system benchmarks (§V-D): descriptive throughput statistics
// (box plots, Fig 1a), cumulative-completion curves with area-vs-ideal
// scores (Fig 1b), SLA latency bands with adjustment-speed metrics
// (Fig 1c), per-interval throughput, and adaptation-time detection.
//
// All duration quantities are expressed in nanoseconds as int64, matching
// time.Duration, so the package works identically under the real clock and
// the simulator's virtual clock.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// subBuckets is the number of linear sub-buckets per octave; subBits is its
// log2. Values below subBuckets get one bucket each.
const (
	subBits    = 4
	subBuckets = 1 << subBits
)

// Histogram is a log-bucketed latency histogram in the spirit of HDR
// histograms: values are bucketed with bounded relative error (~4.2% with
// 16 sub-buckets per octave), supporting quantile queries without
// retaining samples. The zero value is not usable; call NewHistogram.
type Histogram struct {
	counts []uint64
	total  uint64
	// sum is an integer so that Record order and Merge grouping cannot
	// change it: the merged per-phase histograms of a Collector report the
	// same mean as one histogram fed every sample.
	sum      uint64
	min, max int64
}

// NewHistogram returns an empty histogram covering [0, 2^62) ns.
func NewHistogram() *Histogram {
	// 63 octaves * subBuckets is a safe upper bound on bucket count: every
	// int64 has a bucket, so Record never clamps.
	return &Histogram{
		counts: make([]uint64, 63*subBuckets),
		min:    math.MaxInt64,
	}
}

// bucketOf maps a value (negatives count as 0) to its bucket: the octave is
// the position of the highest set bit, the sub-bucket the subBits bits
// below it.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return shift*subBuckets + int(v>>uint(shift))
}

// bucketLow returns the lowest value mapping to bucket i (inverse of
// bucketOf for reporting).
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	return int64(subBuckets+i%subBuckets) << uint(i/subBuckets-1)
}

// Record adds one observation of v nanoseconds.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++ // at most bucketOf(MaxInt64) = 959
	h.total++
	h.sum += uint64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact mean of recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min returns the exact minimum recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an approximation of the q-quantile (0<=q<=1) with the
// histogram's relative-error bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			lo := bucketLow(i)
			hi := bucketLow(i + 1)
			v := lo + (hi-lo)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds other into h. Both histograms must have been created by
// NewHistogram (same bucket count); merging mismatched layouts would
// silently misattribute counts, so it panics instead.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if len(other.counts) != len(h.counts) {
		panic(fmt.Sprintf("metrics: Merge of mismatched histogram layouts (%d/%d buckets)",
			len(h.counts), len(other.counts)))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram for reuse.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// String summarizes the histogram for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.0fns p50=%d p99=%d max=%d}",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
