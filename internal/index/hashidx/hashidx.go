// Package hashidx implements an extendible-hashing index over uint64 keys.
// It is the traditional point-lookup baseline: O(1) gets regardless of data
// distribution, but no ordered scans — the benchmark uses it to show that
// metric rankings depend on the operation mix.
package hashidx

import (
	"sort"

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
		b := ix.dirs[ix.dirIndex(key)]
		for i, k := range b.keys {
			if k == key {
				b.values[i] = value
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
		ix.split(b)
	}
}

// split doubles the directory if needed and redistributes b.
func (ix *Index) split(b *bucket) {
	ix.St.Splits++
	if b.localDepth == ix.globalDepth {
		// Double the directory.
		nd := make([]*bucket, len(ix.dirs)*2)
		for i, d := range ix.dirs {
			nd[2*i] = d
			nd[2*i+1] = d
		}
		ix.dirs = nd
		ix.globalDepth++
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
	for i := range ix.dirs {
		if ix.dirs[i] == b && (i/span)%2 == 1 {
			ix.dirs[i] = sib
		}
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

// Scan implements index.Ordered. Hash indexes have no order, so Scan
// collects and sorts matching entries — deliberately expensive, reflecting
// the real cost of range queries on hash structures. That cost is counted:
// every entry tested and every comparison the sort makes adds to Compares,
// so the price grows with the table, not with the entries passed to fn.
func (ix *Index) Scan(lo, hi uint64, fn func(key, value uint64) bool) int {
	if hi < lo {
		return 0
	}
	type kv struct{ k, v uint64 }
	var hits []kv
	seen := make(map[*bucket]struct{})
	for _, b := range ix.dirs {
		if _, dup := seen[b]; dup {
			continue
		}
		seen[b] = struct{}{}
		ix.St.Compares += uint64(len(b.keys))
		for i, k := range b.keys {
			if k >= lo && k <= hi {
				hits = append(hits, kv{k, b.values[i]})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		ix.St.Compares++
		return hits[i].k < hits[j].k
	})
	visited := 0
	for _, h := range hits {
		visited++
		if !fn(h.k, h.v) {
			break
		}
	}
	return visited
}

// BulkLoad implements index.BulkLoader by repeated insertion (hashing gains
// nothing from sorted input).
func (ix *Index) BulkLoad(keys, values []uint64) {
	*ix = *New()
	for i, k := range keys {
		ix.Insert(k, values[i])
	}
}

var _ index.Ordered = (*Index)(nil)
var _ index.BulkLoader = (*Index)(nil)
var _ index.Instrumented = (*Index)(nil)
