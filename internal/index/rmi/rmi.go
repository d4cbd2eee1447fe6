// Package rmi implements a two-stage Recursive Model Index (Kraska et al.,
// "The Case for Learned Index Structures", SIGMOD 2018): a root linear model
// dispatches each key to one of many second-stage linear models, each
// predicting the key's position in a sorted array within a tracked error
// bound; a final bounded binary search ("last-mile search") corrects the
// prediction.
//
// The RMI is the archetypal *static* learned index: it must be trained on
// sorted data, answers lookups extremely fast when the trained CDF still
// matches the data, and degrades — and eventually refuses inserts into its
// sorted array — when the distribution drifts. The benchmark exercises
// exactly this trade-off; inserts are absorbed into a sorted delta buffer
// that is merged on Retrain, modelling the common "RMI + delta" deployment.
//
// The delta is logically one flat sorted array, and Insert counts the shift
// that keeps such an array sorted, (length − insertion rank)/4 work units, in
// Stats.Modelled: work the index prices but does not perform, like page I/O
// on an in-memory page file, a function of the delta's length and the rank
// only, not a timing. Physically the delta is blocked (sortbuf, like the LSM
// memtable) so the host evaluates the model fast; its layout may change as
// long as length and rank do not.
package rmi

import (
	"math/bits"

	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/sortbuf"
	"repro/internal/stats"
)

// DefaultStage2 is the number of second-stage models used by New.
const DefaultStage2 = 1024

// deltaMergeThreshold triggers an automatic retrain when the delta grows
// beyond this fraction of the main array.
const deltaMergeThreshold = 0.25

// parTrainMin is the main-array size at which Retrain fans the routing
// pass and per-leaf model fits out over internal/par. Below it, goroutine
// overhead beats the win; above it, leaf fits are embarrassingly parallel
// (each writes a disjoint ix.leaves slot), so results are byte-identical
// at any parallelism.
const parTrainMin = 1 << 15

// Index is a two-stage RMI with a delta buffer for updates. Not safe for
// concurrent use.
type Index struct {
	stage2N int

	keys   []uint64 // sorted main array
	values []uint64

	root   stats.Linear
	leaves []leafModel

	// delta absorbs inserts between retrains: one sorted run, so lookups
	// are O(log n) and scans ordered. Insert prices it as a flat sorted
	// array whatever its physical layout (see the package comment).
	delta sortbuf.Buffer[uint64]

	tombstones map[uint64]struct{} // deleted keys awaiting merge

	index.Counters
	trained bool

	// Retrain scratch, reused across retrains so the periodic merges of a
	// long drift run stop allocating: spareKeys/spareVals recycle the
	// replaced main arrays as the next merge's destination; the rest are
	// training work arrays.
	spareKeys []uint64
	spareVals []uint64
	leafOf    []int
	starts    []int
	xs2, ys2  []float64
}

type leafModel struct {
	model stats.Linear
	// err is the max |predicted - actual| observed while training; the
	// last-mile search is bounded to [pred-err, pred+err].
	err int
}

// New returns an empty RMI with the given number of stage-2 models.
func New(stage2 int) *Index {
	if stage2 < 1 {
		stage2 = 1
	}
	return &Index{stage2N: stage2, tombstones: make(map[uint64]struct{})}
}

// NewDefault returns an RMI with DefaultStage2 leaf models.
func NewDefault() *Index { return New(DefaultStage2) }

// Name implements index.Ordered.
func (ix *Index) Name() string { return "rmi" }

// Len implements index.Ordered.
func (ix *Index) Len() int {
	return len(ix.keys) + ix.delta.Len() - len(ix.tombstones)
}

// ModelCount implements index.Trainable.
func (ix *Index) ModelCount() int {
	if !ix.trained {
		return 0
	}
	return 1 + len(ix.leaves)
}

// BulkLoad implements index.BulkLoader: installs the sorted data and trains.
func (ix *Index) BulkLoad(keys, values []uint64) {
	if len(keys) != len(values) {
		panic("rmi: BulkLoad length mismatch")
	}
	ix.keys = append(ix.keys[:0], keys...)
	ix.values = append(ix.values[:0], values...)
	ix.delta.Reset()
	ix.tombstones = make(map[uint64]struct{})
	ix.Retrain()
}

// Retrain implements index.Trainable: merges the delta buffer and
// tombstones into the main array and refits all models. The returned work
// count is the number of model fits plus entries touched, which the cost
// model converts to training time.
func (ix *Index) Retrain() int {
	work := 0
	// Merge delta + main, dropping tombstones. The destination reuses the
	// arrays retired by the previous merge, so steady-state retrains under
	// drift allocate nothing once capacities stabilize.
	if ix.delta.Len() > 0 || len(ix.tombstones) > 0 {
		need := len(ix.keys) + ix.delta.Len()
		merged, mergedV := ix.spareKeys[:0], ix.spareVals[:0]
		if cap(merged) < need || cap(mergedV) < need {
			merged = make([]uint64, 0, need)
			mergedV = make([]uint64, 0, need)
		}
		ix.walk(func(k, v uint64) {
			merged = append(merged, k)
			mergedV = append(mergedV, v)
		})
		work += len(merged)
		ix.spareKeys, ix.spareVals = ix.keys[:0], ix.values[:0]
		ix.keys, ix.values = merged, mergedV
		ix.delta.Reset()
		ix.tombstones = make(map[uint64]struct{})
	}

	n := len(ix.keys)
	if cap(ix.leaves) >= ix.stage2N {
		ix.leaves = ix.leaves[:ix.stage2N]
	} else {
		ix.leaves = make([]leafModel, ix.stage2N)
	}
	if n == 0 {
		for i := range ix.leaves {
			ix.leaves[i] = leafModel{}
		}
		ix.root = stats.Linear{}
		ix.trained = true
		return work + 1
	}

	// Stage 1: map key -> leaf id over the full range. sampleCap pins the
	// sampling stride to the same value the buffers' capacity implied when
	// they were allocated fresh, so reuse cannot change the fitted model.
	sampleCap := min(n, 4096)
	if cap(ix.xs2) < sampleCap {
		ix.xs2 = make([]float64, 0, sampleCap)
		ix.ys2 = make([]float64, 0, sampleCap)
	}
	xs2, ys2 := ix.xs2[:0], ix.ys2[:0]
	stride := max(n/sampleCap, 1)
	for i := 0; i < n; i += stride {
		xs2 = append(xs2, float64(ix.keys[i]))
		ys2 = append(ys2, float64(i)/float64(n)*float64(ix.stage2N))
	}
	ix.root = stats.FitLinear(xs2, ys2)
	work++

	// Partition keys among leaves by the root model's prediction, then
	// fit each leaf on its own span. Using the root's own routing for
	// training guarantees lookup-time routing sees the same partition.
	if cap(ix.starts) >= ix.stage2N+1 {
		ix.starts = ix.starts[:ix.stage2N+1]
	} else {
		ix.starts = make([]int, ix.stage2N+1)
	}
	starts := ix.starts
	for i := range starts {
		starts[i] = -1
	}
	if cap(ix.leafOf) >= n {
		ix.leafOf = ix.leafOf[:n]
	} else {
		ix.leafOf = make([]int, n)
	}
	leafOf := ix.leafOf
	// The routing pass is pure per element (the root model is fixed), so
	// large arrays fan out in chunks; each chunk writes disjoint leafOf
	// slots and the starts derivation below is a sequential scan.
	if n >= parTrainMin {
		const chunk = 1 << 15
		nc := (n + chunk - 1) / chunk
		par.ForEach(nc, 0, func(c int) error {
			lo, hi := c*chunk, min((c+1)*chunk, n)
			for i := lo; i < hi; i++ {
				leafOf[i] = ix.root.PredictClamped(float64(ix.keys[i]), ix.stage2N)
			}
			return nil
		})
	} else {
		for i := 0; i < n; i++ {
			leafOf[i] = ix.root.PredictClamped(float64(ix.keys[i]), ix.stage2N)
		}
	}
	for i := 0; i < n; i++ {
		if l := leafOf[i]; starts[l] == -1 {
			starts[l] = i
		}
	}
	starts[ix.stage2N] = n
	// Back-fill empty leaves' start with the next non-empty start.
	for i := ix.stage2N - 1; i >= 0; i-- {
		if starts[i] == -1 {
			starts[i] = starts[i+1]
		}
	}

	// Stage 2: fit each leaf on its own span. Fits are independent — each
	// writes only its ix.leaves slot — so they fan out per leaf; the work
	// tally (one unit per non-empty leaf, as the serial loop counted) is
	// recomputed deterministically afterwards.
	fit := func(l int) {
		lo, hi := starts[l], starts[l+1]
		if lo >= hi {
			// Empty leaf: constant model pointing at the boundary.
			ix.leaves[l] = leafModel{model: stats.Linear{Intercept: float64(lo)}, err: 0}
			return
		}
		seg := ix.keys[lo:hi]
		m := fitSegment(seg, lo)
		maxErr := 0
		for i, k := range seg {
			pred := m.PredictClamped(float64(k), n)
			diff := pred - (lo + i)
			if diff < 0 {
				diff = -diff
			}
			if diff > maxErr {
				maxErr = diff
			}
		}
		ix.leaves[l] = leafModel{model: m, err: maxErr}
	}
	if n >= parTrainMin && ix.stage2N > 1 {
		par.ForEach(ix.stage2N, 0, func(l int) error {
			fit(l)
			return nil
		})
	} else {
		for l := 0; l < ix.stage2N; l++ {
			fit(l)
		}
	}
	for l := 0; l < ix.stage2N; l++ {
		if starts[l] < starts[l+1] {
			work++
		}
	}
	ix.trained = true
	return work
}

func fitSegment(keys []uint64, offset int) stats.Linear {
	if len(keys) == 1 {
		return stats.Linear{Intercept: float64(offset)}
	}
	m := stats.FitLinearKeys(keys)
	m.Intercept += float64(offset)
	return m
}

// searchMain locates key in the main array via the model, returning its
// index and presence.
func (ix *Index) searchMain(key uint64) (int, bool) {
	n := len(ix.keys)
	if n == 0 || !ix.trained {
		return 0, false
	}
	l := ix.root.PredictClamped(float64(key), ix.stage2N)
	lm := ix.leaves[l]
	pred := lm.model.PredictClamped(float64(key), n)
	lo := max(pred-lm.err, 0)
	hi := min(pred+lm.err+1, n)
	// The window holds pred, so hi-lo >= 1: a binary search over it costs
	// floor(log2(hi-lo))+1 comparisons.
	ix.St.Compares += uint64(bits.Len(uint(hi - lo)))
	// Last-mile search: inline lower bound over the error window.
	// Index-exact equivalent of the sort.Search formulation, so
	// virtual-clock outputs are unchanged.
	i := search.LowerBoundRange(ix.keys, lo, hi, key)
	if i < n && ix.keys[i] == key {
		d := i - pred
		if d < 0 {
			d = -d
		}
		ix.St.ModelErrSum += uint64(d)
		return i, true
	}
	return i, false
}

// Get implements index.Ordered.
func (ix *Index) Get(key uint64) (uint64, bool) {
	ix.St.Searches++
	if _, dead := ix.tombstones[key]; dead {
		return 0, false
	}
	// Delta first: it overrides the main array.
	if v, ok := ix.delta.Get(key); ok {
		return v, true
	}
	if i, ok := ix.searchMain(key); ok {
		return ix.values[i], true
	}
	return 0, false
}

// Insert implements index.Ordered. New keys go to the sorted delta buffer;
// once the delta exceeds deltaMergeThreshold of the main array the index
// retrains automatically (counted in Stats().Splits so the benchmark can
// attribute the latency spike).
func (ix *Index) Insert(key, value uint64) {
	delete(ix.tombstones, key)
	// Update-in-place if the key is in the main array.
	if i, ok := ix.searchMain(key); ok {
		ix.values[i] = value
		return
	}
	rank, added := ix.delta.Put(key, value)
	if !added {
		return
	}
	// Count the memmove that keeps a flat sorted-array delta sorted (~16
	// bytes per shifted entry, one work unit per cache line): cheap while
	// the delta is small and increasingly expensive as drift fills it — a
	// real cost of the static-learned-index design, modelled from length
	// and rank, not performed (see the package comment).
	ix.St.Modelled += uint64((ix.delta.Len() - rank) / 4)

	if len(ix.keys) > 0 && float64(ix.delta.Len()) > deltaMergeThreshold*float64(len(ix.keys)) {
		ix.St.Splits++
		ix.St.TrainWork += uint64(ix.Retrain())
	}
}

// Delete implements index.Ordered via tombstones resolved at Retrain.
func (ix *Index) Delete(key uint64) bool {
	if _, dead := ix.tombstones[key]; dead {
		return false
	}
	if ix.delta.Remove(key) {
		return true
	}
	if _, ok := ix.searchMain(key); ok {
		ix.tombstones[key] = struct{}{}
		return true
	}
	return false
}

// Scan implements index.Ordered: it counts the sorted merge of the main
// array and the delta that walk performs, without performing it. Between two
// delta keys the main keys are a range whose length is index arithmetic;
// while tombstones exist the range is checked key by key. Only the search
// for lo is charged.
func (ix *Index) Scan(lo uint64, limit int) int {
	if limit < 1 {
		return 0
	}
	i, _ := ix.searchMain(lo)
	if !ix.trained {
		i = search.LowerBound(ix.keys, lo)
	}
	// The trained error bound holds for present keys; for an absent scan
	// bound the insertion point can sit just outside the searched window.
	// Fix up locally (cost bounded by the true model error).
	for i > 0 && ix.keys[i-1] >= lo {
		i--
	}
	for i < len(ix.keys) && ix.keys[i] < lo {
		i++
	}
	c := ix.delta.Seek(lo)
	dead := len(ix.tombstones) > 0
	visited := 0
	for {
		// Main keys [i, j) come before the next delta key dk. Without
		// tombstones no more than limit-visited of them can count, so the
		// search for dk stops there.
		dk, _, more := c.Pair()
		j := len(ix.keys)
		if !dead {
			j = min(j, i+limit-visited)
		}
		if more {
			j = search.LowerBoundRange(ix.keys, i, j, dk)
		}
		if dead {
			for ; i < j && visited < limit; i++ {
				if _, gone := ix.tombstones[ix.keys[i]]; !gone {
					visited++
				}
			}
		} else {
			visited, i = visited+j-i, j
		}
		if visited >= limit || !more {
			return min(visited, limit)
		}
		if i < len(ix.keys) && ix.keys[i] == dk {
			i++ // delta overrides main
		}
		c.Next()
		if visited++; visited == limit {
			return limit
		}
	}
}

// walk is the one sorted merge of the main array and the delta: it hands fn
// every live pair in key order — the delta overriding main on equal keys,
// tombstoned keys skipped. It alternates between a run of main keys below
// the next delta key and that delta pair; a delta key is never tombstoned
// (Insert lifts the tombstone, Delete removes the key from the delta first),
// so only main keys look the map up, and only while it holds anything.
func (ix *Index) walk(fn func(key, value uint64)) {
	i, c := 0, ix.delta.Seek(0)
	dead := len(ix.tombstones) > 0
	for {
		dk, dv, more := c.Pair()
		for ; i < len(ix.keys) && (!more || ix.keys[i] < dk); i++ {
			if dead {
				if _, gone := ix.tombstones[ix.keys[i]]; gone {
					continue
				}
			}
			fn(ix.keys[i], ix.values[i])
		}
		if !more {
			return
		}
		if i < len(ix.keys) && ix.keys[i] == dk {
			i++ // delta overrides main
		}
		c.Next()
		fn(dk, dv)
	}
}

// DeltaLen reports the current delta-buffer size (for tests and reports).
func (ix *Index) DeltaLen() int { return ix.delta.Len() }

var _ index.Measured = (*Index)(nil)
var _ index.Trainable = (*Index)(nil)
