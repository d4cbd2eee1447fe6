package kv

import (
	"repro/internal/pager"
	"repro/internal/search"
)

// entry is one key's state inside a run. Deletions are marked by the dead
// flag rather than a reserved value, so the full uint64 value space
// remains usable.
type entry struct {
	key  uint64
	val  uint64
	dead bool
}

// sliceRuns is the in-memory run store.
type sliceRuns struct{}

func (sliceRuns) write(entries []entry, k Knobs) runData { return newSliceRun(entries, k.SparseEvery) }
func (sliceRuns) sync([]run) error                       { return nil }
func (sliceRuns) pool() *pager.Pool                      { return nil }
func (sliceRuns) reachable([]run) []pager.PageID         { return nil }

// sliceRun is an immutable sorted run held as one slice. A sparse index of
// every SparseEvery-th key narrows point lookups to one block.
type sliceRun struct {
	entries []entry
	// sparse[i] is the key at entries[i*sparseEvery].
	sparse      []uint64
	sparseEvery int
}

func newSliceRun(entries []entry, sparseEvery int) *sliceRun {
	r := &sliceRun{entries: entries, sparseEvery: sparseEvery}
	for i := 0; i < len(entries); i += sparseEvery {
		r.sparse = append(r.sparse, entries[i].key)
	}
	return r
}

// get returns the entry for key if present in this run; probes is the
// width of the block the sparse index narrowed the search to.
func (r *sliceRun) get(key uint64) (entry, bool, int) {
	if len(r.entries) == 0 {
		return entry{}, false, 0
	}
	b := search.UpperBound(r.sparse, key)
	if b == 0 {
		// sparse[0] is entries[0].key, so key below it is absent.
		if key < r.entries[0].key {
			return entry{}, false, 0
		}
		b = 1
	}
	lo := (b - 1) * r.sparseEvery
	hi := lo + r.sparseEvery
	if hi > len(r.entries) {
		hi = len(r.entries)
	}
	i := lowerBoundEntries(r.entries, lo, hi, key)
	if i < len(r.entries) && r.entries[i].key == key {
		return r.entries[i], true, hi - lo
	}
	return entry{}, false, hi - lo
}

// The whole run is chunk 0.
func (r *sliceRun) seek(uint64) int { return 0 }

func (r *sliceRun) chunk(i int) []entry {
	if i > 0 {
		return nil
	}
	return r.entries
}

func (r *sliceRun) all() []entry { return r.entries }
func (r *sliceRun) free()        {}

// lowerBoundEntries returns the smallest i in [lo, hi] with entries[i].key
// >= key, as search.LowerBoundRange does for a []uint64: restated because a
// run's keys live inside entry structs. It is the branchless form (a base
// index advanced conditionally), not the search package's branchy loop.
func lowerBoundEntries(entries []entry, lo, hi int, key uint64) int {
	base, n := lo, hi-lo
	for n > 1 {
		half := n >> 1
		if entries[base+half-1].key < key {
			base += half
		}
		n -= half
	}
	if n == 1 && entries[base].key < key {
		base++
	}
	return base
}
