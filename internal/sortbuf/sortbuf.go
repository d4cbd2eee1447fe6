// Package sortbuf is the one in-memory sorted write buffer of the tree: the
// RMI's insert delta and the LSM memtable. Logically a Buffer is one sorted
// run of uint64 keys, each with a value; physically it is sorted blocks of
// at most BlockCap pairs behind a first-key directory, so Put and Remove
// move one block's tail instead of the whole run. Blocks retired by Reset or
// Remove are kept and reused, so a buffer refilled to the size it had
// allocates nothing.
package sortbuf

import (
	"slices"

	"repro/internal/search"
)

// BlockCap bounds one block, and so what a Put or Remove shifts.
const BlockCap = 512

type block[V any] struct {
	keys [BlockCap]uint64
	vals [BlockCap]V
}

// Buffer is a sorted run of key/value pairs; the zero value is empty. No
// block is ever empty. Not safe for concurrent use.
type Buffer[V any] struct {
	first  []uint64 // first[b] == blocks[b].keys[0]
	cnt    []int    // pairs held by blocks[b]
	blocks []*block[V]
	spare  []*block[V] // blocks retired by Reset or Remove, reused by Put
	n      int
}

// Len returns the number of pairs held.
func (d *Buffer[V]) Len() int { return d.n }

// find returns the position (block, offset) of the first pair with key >=
// key — possibly one past the end of a block, where such a key is to be
// inserted — and whether that pair's key equals key.
func (d *Buffer[V]) find(key uint64) (b, o int, ok bool) {
	b = search.LowerBound(d.first, key)
	if b < len(d.first) && d.first[b] == key {
		return b, 0, true
	}
	if b == 0 {
		return 0, 0, false
	}
	b--
	ks := d.blocks[b].keys[:d.cnt[b]]
	o = search.LowerBound(ks, key)
	return b, o, o < len(ks) && ks[o] == key
}

// Get returns the value held for key.
func (d *Buffer[V]) Get(key uint64) (v V, ok bool) {
	if d.n == 0 {
		return v, false
	}
	if b, o, ok := d.find(key); ok {
		return d.blocks[b].vals[o], true
	}
	return v, false
}

// Put stores key → val. For a key the buffer did not hold it returns the
// key's rank in the sorted run (the number of smaller keys) and true; an
// overwrite returns false.
func (d *Buffer[V]) Put(key uint64, val V) (rank int, added bool) {
	b, o, ok := d.find(key)
	if ok {
		d.blocks[b].vals[o] = val
		return 0, false
	}
	switch {
	case len(d.blocks) == 0:
		d.insertBlock(0)
	case d.cnt[b] == BlockCap:
		// Split the full block: its upper half moves to a new block b+1.
		const half = BlockCap / 2
		d.insertBlock(b + 1)
		lo, hi := d.blocks[b], d.blocks[b+1]
		copy(hi.keys[:half], lo.keys[half:])
		copy(hi.vals[:half], lo.vals[half:])
		d.cnt[b], d.cnt[b+1], d.first[b+1] = half, half, hi.keys[0]
		if o > half {
			b, o = b+1, o-half
		}
	}
	blk, c := d.blocks[b], d.cnt[b]
	copy(blk.keys[o+1:c+1], blk.keys[o:c])
	copy(blk.vals[o+1:c+1], blk.vals[o:c])
	blk.keys[o], blk.vals[o] = key, val
	d.cnt[b]++
	d.n++
	if o == 0 {
		d.first[b] = key
	}
	rank = o
	for _, held := range d.cnt[:b] {
		rank += held
	}
	return rank, true
}

// insertBlock opens an empty block at directory position b, recycled from
// spare when one is there.
func (d *Buffer[V]) insertBlock(b int) {
	var blk *block[V]
	if s := len(d.spare); s > 0 {
		blk, d.spare = d.spare[s-1], d.spare[:s-1]
	} else {
		blk = new(block[V])
	}
	d.first = slices.Insert(d.first, b, 0)
	d.cnt = slices.Insert(d.cnt, b, 0)
	d.blocks = slices.Insert(d.blocks, b, blk)
}

// Remove deletes key, reporting whether the buffer held it.
func (d *Buffer[V]) Remove(key uint64) bool {
	b, o, ok := d.find(key)
	if !ok {
		return false
	}
	blk, c := d.blocks[b], d.cnt[b]
	copy(blk.keys[o:], blk.keys[o+1:c])
	copy(blk.vals[o:], blk.vals[o+1:c])
	d.cnt[b]--
	d.n--
	if c == 1 {
		d.spare = append(d.spare, blk)
		d.first = slices.Delete(d.first, b, b+1)
		d.cnt = slices.Delete(d.cnt, b, b+1)
		d.blocks = slices.Delete(d.blocks, b, b+1)
	} else if o == 0 {
		d.first[b] = blk.keys[0]
	}
	return true
}

// Reset empties the buffer, keeping its blocks for reuse.
func (d *Buffer[V]) Reset() {
	d.spare = append(d.spare, d.blocks...)
	d.first, d.cnt, d.blocks, d.n = d.first[:0], d.cnt[:0], d.blocks[:0], 0
}

// Cursor walks a buffer in key order. A Put, Remove or Reset invalidates it.
type Cursor[V any] struct {
	d    *Buffer[V]
	b, o int
}

// Seek returns a cursor at the first pair whose key is >= key.
func (d *Buffer[V]) Seek(key uint64) Cursor[V] {
	c := Cursor[V]{d: d}
	if d.n > 0 {
		c.b, c.o, _ = d.find(key)
		if c.o == d.cnt[c.b] {
			c.b, c.o = c.b+1, 0
		}
	}
	return c
}

// Valid reports whether the cursor is on a pair.
func (c *Cursor[V]) Valid() bool { return c.b < len(c.d.blocks) }

// Pair returns the pair under the cursor; ok is false past the end.
func (c *Cursor[V]) Pair() (key uint64, val V, ok bool) {
	if !c.Valid() {
		return key, val, false
	}
	blk := c.d.blocks[c.b]
	return blk.keys[c.o], blk.vals[c.o], true
}

// Next moves a valid cursor to the following pair.
func (c *Cursor[V]) Next() {
	if c.o++; c.o == c.d.cnt[c.b] {
		c.b, c.o = c.b+1, 0
	}
}
