// Package hashidx implements an extendible-hashing index over uint64 keys.
// It is the traditional point-lookup baseline: O(1) gets regardless of data
// distribution, but no ordered scans — the benchmark uses it to show that
// metric rankings depend on the operation mix.
package hashidx

import (
	"math/bits"

	"repro/internal/index"
)

const (
	bucketCap = 16
	// maxDepth caps directory doubling; beyond it buckets overflow
	// linearly (only reachable under adversarial hash collisions).
	maxDepth = 40
)

// Index is an extendible hash table. Not safe for concurrent use.
type Index struct {
	globalDepth uint
	dirs        []*bucket
	size        int
	index.Counters
}

type bucket struct {
	localDepth uint
	keys       []uint64
	values     []uint64
}

// New returns an empty hash index.
func New() *Index {
	b := &bucket{localDepth: 0}
	return &Index{globalDepth: 0, dirs: []*bucket{b}}
}

// Name implements index.Ordered.
func (ix *Index) Name() string { return "hash" }

// Len implements index.Ordered.
func (ix *Index) Len() int { return ix.size }

func hash64(k uint64) uint64 {
	// Fibonacci hashing with an avalanche pass; cheap and well mixed.
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

func (ix *Index) dirIndex(key uint64) int {
	if ix.globalDepth == 0 {
		return 0
	}
	return int(hash64(key) >> (64 - ix.globalDepth))
}

// Get implements index.Ordered.
func (ix *Index) Get(key uint64) (uint64, bool) {
	ix.St.Searches++
	b := ix.dirs[ix.dirIndex(key)]
	for i, k := range b.keys {
		ix.St.Compares++
		if k == key {
			return b.values[i], true
		}
	}
	return 0, false
}

// Insert implements index.Ordered.
func (ix *Index) Insert(key, value uint64) {
	for {
		i := ix.dirIndex(key)
		b := ix.dirs[i]
		for j, k := range b.keys {
			if k == key {
				b.values[j] = value
				return
			}
		}
		// Overflow past capacity only in the pathological case where
		// the directory has hit its depth cap (mass hash collisions);
		// the bucket then degrades to a linear list rather than the
		// split loop spinning forever.
		if len(b.keys) < bucketCap || b.localDepth >= maxDepth {
			b.keys = append(b.keys, key)
			b.values = append(b.values, value)
			ix.size++
			return
		}
		ix.split(b, i)
	}
}

// split doubles the directory if needed and redistributes b, which
// directory slot i points to. A bucket of local depth d fills 2^(globalDepth−d)
// contiguous directory slots, aligned to their count.
func (ix *Index) split(b *bucket, i int) {
	ix.St.Splits++
	if b.localDepth == ix.globalDepth {
		// Double the directory: slot i becomes slots 2i and 2i+1.
		nd := make([]*bucket, len(ix.dirs)*2)
		for j, d := range ix.dirs {
			nd[2*j] = d
			nd[2*j+1] = d
		}
		ix.dirs = nd
		ix.globalDepth++
		i *= 2
	}
	b.localDepth++
	sib := &bucket{localDepth: b.localDepth}
	// Redistribute entries between b and sib on the new depth bit.
	bit := uint64(1) << (64 - b.localDepth)
	oldKeys, oldVals := b.keys, b.values
	b.keys, b.values = nil, nil
	for i, k := range oldKeys {
		if hash64(k)&bit != 0 {
			sib.keys = append(sib.keys, k)
			sib.values = append(sib.values, oldVals[i])
		} else {
			b.keys = append(b.keys, k)
			b.values = append(b.values, oldVals[i])
		}
	}
	// Point the upper half of b's directory range at the sibling.
	span := 1 << (ix.globalDepth - b.localDepth) // dirs per half
	upper := i&^(2*span-1) + span
	for j := upper; j < upper+span; j++ {
		ix.dirs[j] = sib
	}
}

// Delete implements index.Ordered.
func (ix *Index) Delete(key uint64) bool {
	b := ix.dirs[ix.dirIndex(key)]
	for i, k := range b.keys {
		if k == key {
			last := len(b.keys) - 1
			b.keys[i], b.values[i] = b.keys[last], b.values[last]
			b.keys = b.keys[:last]
			b.values = b.values[:last]
			ix.size--
			return true
		}
	}
	return false
}

// Scan implements index.Ordered. Hash indexes have no order, so a scan
// tests every entry and would sort the keys >= lo to hand them out in order
// — deliberately expensive, reflecting the real cost of range queries on
// hash structures, whatever the limit. The tests are counted in Compares;
// the sort of h hits is priced in Modelled at h·⌈log₂ h⌉ and not performed,
// since a scan only counts. Each bucket is visited once, by stepping over
// its directory slots (see split).
func (ix *Index) Scan(lo uint64, limit int) int {
	if limit < 1 {
		return 0
	}
	hits := 0
	for i := 0; i < len(ix.dirs); {
		b := ix.dirs[i]
		i += 1 << (ix.globalDepth - b.localDepth)
		ix.St.Compares += uint64(len(b.keys))
		for _, k := range b.keys {
			if k >= lo {
				hits++
			}
		}
	}
	if hits > 1 {
		ix.St.Modelled += uint64(hits * bits.Len(uint(hits-1)))
	}
	return min(hits, limit)
}

// BulkLoad implements index.BulkLoader by repeated insertion (hashing gains
// nothing from sorted input).
func (ix *Index) BulkLoad(keys, values []uint64) {
	*ix = *New()
	for i, k := range keys {
		ix.Insert(k, values[i])
	}
}

var _ index.Measured = (*Index)(nil)
