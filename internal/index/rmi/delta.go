package rmi

import (
	"slices"

	"repro/internal/search"
)

// deltaBlockCap bounds one block of the delta, and so what an insert shifts:
// 512 key/value pairs, 8 KB.
const deltaBlockCap = 512

type deltaBlock struct{ keys, vals [deltaBlockCap]uint64 }

// delta is the insert buffer between retrains. Logically it is one sorted
// run of key/value pairs, and that is all the rest of the package (and the
// price Insert charges) knows; physically it is sorted blocks of at most
// deltaBlockCap pairs behind a first-key directory, so put and remove move
// one block's tail instead of the whole run. No block is ever empty.
type delta struct {
	first  []uint64 // first[b] == blocks[b].keys[0]
	cnt    []int    // pairs held by blocks[b]
	blocks []*deltaBlock
	spare  []*deltaBlock // blocks retired by reset or remove, reused by put
	n      int
}

// find returns the position (block, offset) of the first pair with key >=
// key — possibly one past the end of a block, where such a key is to be
// inserted — and whether that pair's key equals key.
func (d *delta) find(key uint64) (b, o int, ok bool) {
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

func (d *delta) get(key uint64) (uint64, bool) {
	if d.n == 0 {
		return 0, false
	}
	if b, o, ok := d.find(key); ok {
		return d.blocks[b].vals[o], true
	}
	return 0, false
}

// put stores key → val. For a key the delta did not hold it returns the
// key's rank in the sorted run (the number of smaller keys) and true; an
// overwrite returns false.
func (d *delta) put(key, val uint64) (rank int, added bool) {
	b, o, ok := d.find(key)
	if ok {
		d.blocks[b].vals[o] = val
		return 0, false
	}
	switch {
	case len(d.blocks) == 0:
		d.insertBlock(0)
	case d.cnt[b] == deltaBlockCap:
		// Split the full block: its upper half moves to a new block b+1.
		const half = deltaBlockCap / 2
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
func (d *delta) insertBlock(b int) {
	var blk *deltaBlock
	if s := len(d.spare); s > 0 {
		blk, d.spare = d.spare[s-1], d.spare[:s-1]
	} else {
		blk = new(deltaBlock)
	}
	d.first = slices.Insert(d.first, b, 0)
	d.cnt = slices.Insert(d.cnt, b, 0)
	d.blocks = slices.Insert(d.blocks, b, blk)
}

func (d *delta) remove(key uint64) bool {
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

// reset empties the delta, keeping its blocks for reuse.
func (d *delta) reset() {
	d.spare = append(d.spare, d.blocks...)
	d.first, d.cnt, d.blocks, d.n = d.first[:0], d.cnt[:0], d.blocks[:0], 0
}

// deltaCursor walks the delta in key order.
type deltaCursor struct {
	d    *delta
	b, o int
}

// seek returns a cursor at the first pair whose key is >= key.
func (d *delta) seek(key uint64) deltaCursor {
	c := deltaCursor{d: d}
	if d.n > 0 {
		c.b, c.o, _ = d.find(key)
		if c.o == d.cnt[c.b] {
			c.b, c.o = c.b+1, 0
		}
	}
	return c
}

func (c *deltaCursor) valid() bool { return c.b < len(c.d.blocks) }

func (c *deltaCursor) pair() (key, val uint64) {
	blk := c.d.blocks[c.b]
	return blk.keys[c.o], blk.vals[c.o]
}

func (c *deltaCursor) next() {
	if c.o++; c.o == c.d.cnt[c.b] {
		c.b, c.o = c.b+1, 0
	}
}
