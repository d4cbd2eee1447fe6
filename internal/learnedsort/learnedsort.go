// Package learnedsort implements a CDF-model distribution sort after
// Kristo et al., "The Case for a Learned Sorting Algorithm" (SIGMOD 2020),
// which the paper cites as a learned query-execution component: a model of
// the data's cumulative distribution function places each record close to
// its final sorted position, and a cheap touch-up pass (insertion sort over
// a nearly-sorted array) finishes the job.
//
// The package exposes both the learned sort and the std-library comparison
// sort so the benchmark can measure the crossover: learned sorting wins on
// distributions its model captures and loses when the model is badly wrong
// (adversarial or tiny inputs).
package learnedsort

import "sort"

// Model approximates the CDF of a key sample with an equi-width histogram
// of linear splines: the domain [min,max] is cut into buckets; within each
// bucket the empirical CDF is interpolated linearly. Training is O(sample).
type Model struct {
	min, max uint64
	buckets  []float64 // cumulative fraction at each bucket boundary
}

// TrainModel fits a CDF model on a sample using the given number of
// histogram buckets (256 is a good default). The sample may be unsorted.
// An empty sample yields a model that maps everything to position 0.
func TrainModel(sample []uint64, buckets int) *Model {
	if buckets < 2 {
		buckets = 2
	}
	m := &Model{buckets: make([]float64, buckets+1)}
	if len(sample) == 0 {
		m.max = 1
		return m
	}
	m.min, m.max = sample[0], sample[0]
	for _, k := range sample {
		if k < m.min {
			m.min = k
		}
		if k > m.max {
			m.max = k
		}
	}
	if m.max == m.min {
		for i := range m.buckets {
			m.buckets[i] = 1
		}
		return m
	}
	counts := make([]int, buckets)
	span := float64(m.max-m.min) + 1
	for _, k := range sample {
		b := int(float64(k-m.min) / span * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	cum := 0
	for i, c := range counts {
		cum += c
		m.buckets[i+1] = float64(cum) / float64(len(sample))
	}
	return m
}

// CDF returns the model's estimate of P(X <= k) in [0, 1].
func (m *Model) CDF(k uint64) float64 {
	if k < m.min {
		return 0
	}
	if k >= m.max {
		return 1
	}
	buckets := len(m.buckets) - 1
	span := float64(m.max-m.min) + 1
	pos := float64(k-m.min) / span * float64(buckets)
	b := int(pos)
	if b >= buckets {
		b = buckets - 1
	}
	frac := pos - float64(b)
	return m.buckets[b] + frac*(m.buckets[b+1]-m.buckets[b])
}

// Result carries the sorted data plus the work counters the benchmark
// reports: how much of the output the model placed correctly and how much
// the touch-up pass had to fix.
type Result struct {
	// Collisions counts keys that could not be placed at their predicted
	// slot and spilled into the overflow path.
	Collisions int
	// TouchupMoves counts element moves performed by the final
	// insertion-sort pass — the model-quality signal (0 for a perfect
	// model).
	TouchupMoves int
}

// oversizeFactor flags a slot group as a model failure when it holds more
// than this multiple of the average load; such groups fall back to the
// comparison sort (graceful degradation, counted in Result.Collisions).
const oversizeFactor = 32

// Sort sorts keys ascending in place using the trained model and returns
// placement statistics. The algorithm is a counting scatter by predicted
// CDF position — because the model's CDF is monotone, slot groups are
// already in global order, and only *within* each (tiny) group does a
// touch-up insertion sort run. Cost is two linear passes plus the
// intra-group work, which the model's quality determines.
func Sort(keys []uint64, m *Model) Result {
	var res Result
	n := len(keys)
	if n < 2 {
		return res
	}
	slots := n
	// Pass 1: count keys per predicted slot.
	counts := make([]int32, slots+1)
	preds := make([]int32, n)
	for i, k := range keys {
		p := int32(m.CDF(k) * float64(slots-1))
		preds[i] = p
		counts[p+1]++
	}
	// Prefix sums -> group start offsets.
	for i := 1; i <= slots; i++ {
		counts[i] += counts[i-1]
	}
	starts := make([]int32, slots)
	copy(starts, counts[:slots])
	// Pass 2: scatter into exact group ranges.
	out := make([]uint64, n)
	next := make([]int32, slots)
	copy(next, starts)
	for i, k := range keys {
		p := preds[i]
		out[next[p]] = k
		next[p]++
	}
	copy(keys, out)
	// Finish each group: tiny groups get an insertion sort (moves
	// counted — the model-quality signal); oversized groups are model
	// failures and fall back to the comparison sort.
	avg := n/slots + 1
	threshold := avg * oversizeFactor
	for s := 0; s < slots; s++ {
		lo := int(starts[s])
		hi := int(counts[s+1])
		if hi-lo < 2 {
			continue
		}
		if hi-lo > threshold {
			res.Collisions += hi - lo
			sort.Slice(keys[lo:hi], func(i, j int) bool { return keys[lo+i] < keys[lo+j] })
			continue
		}
		for i := lo + 1; i < hi; i++ {
			k := keys[i]
			j := i - 1
			for j >= lo && keys[j] > k {
				keys[j+1] = keys[j]
				j--
				res.TouchupMoves++
			}
			keys[j+1] = k
		}
	}
	return res
}

// SortAuto trains a model on a deterministic sample of keys and sorts,
// returning the result stats. sampleSize 0 uses min(n, 4096).
func SortAuto(keys []uint64, sampleSize int) Result {
	n := len(keys)
	if sampleSize <= 0 {
		sampleSize = 4096
	}
	if sampleSize > n {
		sampleSize = n
	}
	sample := make([]uint64, 0, sampleSize)
	if n > 0 {
		stride := float64(n) / float64(sampleSize)
		for i := 0; i < sampleSize; i++ {
			sample = append(sample, keys[int(float64(i)*stride)])
		}
	}
	return Sort(keys, TrainModel(sample, 256))
}

// StdSort is the baseline comparison sort (sort.Slice) with an identical
// signature for the benchmark harness.
func StdSort(keys []uint64) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
}

// IsSorted reports whether keys is ascending.
func IsSorted(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}
