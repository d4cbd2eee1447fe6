// Package btree implements an in-memory B+ tree over uint64 keys and
// values. It is the traditional-index baseline of the benchmark: no model,
// no training phase, stable O(log n) performance regardless of the data
// distribution — exactly the profile learned indexes are compared against.
package btree

import (
	mathbits "math/bits"

	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/search"
)

// parLoadMin is the key count at which BulkLoad fans the slab fill out
// over internal/par; below it a serial copy wins.
const parLoadMin = 1 << 20

// DefaultOrder is the fan-out used by New. 64 keys per node keeps inner
// nodes around one cache line's worth of separators while staying readable.
const DefaultOrder = 64

// Tree is a B+ tree. The zero value is not usable; call New. Not safe for
// concurrent use.
type Tree struct {
	order int
	root  node
	size  int
	index.Counters
}

type node interface {
	// insert returns a new right sibling and its separator key when the
	// node split, else nil.
	insert(t *Tree, key, value uint64) (node, uint64, bool)
	get(t *Tree, key uint64) (uint64, bool)
	// delete reports whether the key existed.
	delete(key uint64) bool
}

type inner struct {
	keys     []uint64 // separator keys; child i holds keys < keys[i]
	children []node
}

type leaf struct {
	keys   []uint64
	values []uint64
	next   *leaf
}

// New returns an empty B+ tree with the given order (max keys per leaf).
// Orders below 4 are raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	return &Tree{order: order, root: &leaf{}}
}

// NewDefault returns an empty B+ tree with DefaultOrder.
func NewDefault() *Tree { return New(DefaultOrder) }

// Name implements index.Ordered.
func (t *Tree) Name() string { return "btree" }

// Len implements index.Ordered.
func (t *Tree) Len() int { return t.size }

// Get implements index.Ordered.
func (t *Tree) Get(key uint64) (uint64, bool) {
	t.St.Searches++
	return t.root.get(t, key)
}

// Insert implements index.Ordered.
func (t *Tree) Insert(key, value uint64) {
	right, sep, added := t.root.insert(t, key, value)
	if added {
		t.size++
	}
	if right != nil {
		t.St.Splits++
		t.root = &inner{keys: []uint64{sep}, children: []node{t.root, right}}
	}
}

// Delete implements index.Ordered. Deletion uses lazy rebalancing: keys are
// removed from leaves but underfull nodes are not merged. For benchmark
// workloads (delete share well below insert share) this bounds complexity
// without affecting asymptotics; Len stays exact.
func (t *Tree) Delete(key uint64) bool {
	if t.root.delete(key) {
		t.size--
		return true
	}
	return false
}

func (n *inner) childFor(t *Tree, key uint64) (int, node) {
	t.St.Compares += uint64(bits(len(n.keys)))
	// Branchless upper bound: child i holds keys < keys[i], so the route
	// for key is the first separator strictly greater than it.
	i := search.UpperBound(n.keys, key)
	return i, n.children[i]
}

// bits is the comparison count charged for a binary search over n keys:
// ⌊log2 n⌋ + 1, and 1 for an empty node.
func bits(n int) int { return max(mathbits.Len(uint(n)), 1) }

func (n *inner) get(t *Tree, key uint64) (uint64, bool) {
	_, c := n.childFor(t, key)
	return c.get(t, key)
}

func (n *inner) insert(t *Tree, key, value uint64) (node, uint64, bool) {
	i, c := n.childFor(t, key)
	right, sep, added := c.insert(t, key, value)
	if right == nil {
		return nil, 0, added
	}
	t.St.Splits++
	// Splice the new child in at position i.
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right

	if len(n.keys) <= t.order {
		return nil, 0, added
	}
	// Split this inner node: middle separator moves up.
	mid := len(n.keys) / 2
	upKey := n.keys[mid]
	r := &inner{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return r, upKey, added
}

func (n *inner) delete(key uint64) bool {
	return n.children[search.UpperBound(n.keys, key)].delete(key)
}

func (l *leaf) find(t *Tree, key uint64) (int, bool) {
	if t != nil {
		t.St.Compares += uint64(bits(len(l.keys)))
	}
	i := search.LowerBound(l.keys, key)
	return i, i < len(l.keys) && l.keys[i] == key
}

func (l *leaf) get(t *Tree, key uint64) (uint64, bool) {
	i, ok := l.find(t, key)
	if !ok {
		return 0, false
	}
	return l.values[i], true
}

func (l *leaf) insert(t *Tree, key, value uint64) (node, uint64, bool) {
	i, ok := l.find(t, key)
	if ok {
		l.values[i] = value
		return nil, 0, false
	}
	l.keys = append(l.keys, 0)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.values = append(l.values, 0)
	copy(l.values[i+1:], l.values[i:])
	l.values[i] = value

	if len(l.keys) <= t.order {
		return nil, 0, true
	}
	mid := len(l.keys) / 2
	r := &leaf{
		keys:   append([]uint64(nil), l.keys[mid:]...),
		values: append([]uint64(nil), l.values[mid:]...),
		next:   l.next,
	}
	l.keys = l.keys[:mid]
	l.values = l.values[:mid]
	l.next = r
	return r, r.keys[0], true
}

func (l *leaf) delete(key uint64) bool {
	i, ok := l.find(nil, key)
	if !ok {
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.values = append(l.values[:i], l.values[i+1:]...)
	return true
}

// leafFor descends to the leaf that would contain key.
func (t *Tree) leafFor(key uint64) *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			_, n = v.childFor(t, key)
		}
	}
}

// Scan implements index.Ordered. It counts a leaf at a time and charges
// each leaf it enters one binary search, as a walk that searched every leaf
// for lo (0 after the first) would.
func (t *Tree) Scan(lo uint64, limit int) int {
	if limit < 1 {
		return 0
	}
	l := t.leafFor(lo)
	i, _ := l.find(t, lo)
	visited := 0
	for {
		if visited += len(l.keys) - i; visited >= limit {
			return limit
		}
		if l = l.next; l == nil {
			return visited
		}
		t.St.Compares += uint64(bits(len(l.keys)))
		i = 0
	}
}

// BulkLoad implements index.BulkLoader: builds the tree bottom-up from
// strictly ascending keys in O(n).
func (t *Tree) BulkLoad(keys, values []uint64) {
	if len(keys) != len(values) {
		panic("btree: BulkLoad length mismatch")
	}
	t.size = len(keys)
	t.St = index.Stats{}
	if len(keys) == 0 {
		t.root = &leaf{}
		return
	}
	// Fill leaves to ~75% of order so early inserts don't cascade splits.
	per := t.order * 3 / 4
	if per < 2 {
		per = 2
	}
	// Cache-conscious arena layout: one slab of leaf structs and two flat
	// key/value slabs that every leaf slices into, instead of three small
	// allocations per leaf. Each leaf's slices are capped at its own span
	// (three-index slicing), so a post-load insert that grows a leaf
	// reallocates that leaf privately and can never scribble on a sibling.
	n := len(keys)
	nLeaves := (n + per - 1) / per
	leafArr := make([]leaf, nLeaves)
	keySlab := make([]uint64, n)
	valSlab := make([]uint64, n)
	if n >= parLoadMin {
		const chunk = 1 << 20
		nc := (n + chunk - 1) / chunk
		par.ForEach(nc, 0, func(c int) error {
			lo, hi := c*chunk, (c+1)*chunk
			if hi > n {
				hi = n
			}
			copy(keySlab[lo:hi], keys[lo:hi])
			copy(valSlab[lo:hi], values[lo:hi])
			return nil
		})
	} else {
		copy(keySlab, keys)
		copy(valSlab, values)
	}
	leaves := make([]node, nLeaves)
	seps := make([]uint64, 0, nLeaves) // first key of each leaf except the first
	for li := 0; li < nLeaves; li++ {
		start := li * per
		end := start + per
		if end > n {
			end = n
		}
		lf := &leafArr[li]
		lf.keys = keySlab[start:end:end]
		lf.values = valSlab[start:end:end]
		if li > 0 {
			leafArr[li-1].next = lf
			seps = append(seps, lf.keys[0])
		}
		leaves[li] = lf
	}
	t.root = buildLevel(leaves, seps, t.order)
}

// buildLevel assembles parents over children until a single root remains.
// Each level's inner nodes come from one arena slab and slice into the
// previous level's node and separator arrays (capacity-capped, so a later
// split's append reallocates privately instead of aliasing a sibling).
func buildLevel(children []node, seps []uint64, order int) node {
	for len(children) > 1 {
		per := order * 3 / 4
		if per < 2 {
			per = 2
		}
		nPar := (len(children) + per) / (per + 1)
		inners := make([]inner, nPar)
		parents := make([]node, 0, nPar)
		parentSeps := make([]uint64, 0, nPar)
		for i := 0; i < len(children); i += per + 1 {
			end := i + per + 1
			if end > len(children) {
				end = len(children)
			}
			in := &inners[len(parents)]
			in.children = children[i:end:end]
			if nk := end - i - 1; nk > 0 {
				in.keys = seps[i : i+nk : i+nk]
			}
			if i > 0 {
				parentSeps = append(parentSeps, seps[i-1])
			}
			parents = append(parents, in)
		}
		children, seps = parents, parentSeps
	}
	return children[0]
}

// Min returns the smallest key and true, or false when empty.
func (t *Tree) Min() (uint64, bool) {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			if len(v.keys) == 0 {
				// Lazy deletes can empty a leaf; walk the chain.
				for v != nil && len(v.keys) == 0 {
					v = v.next
				}
				if v == nil {
					return 0, false
				}
			}
			return v.keys[0], true
		case *inner:
			n = v.children[0]
		}
	}
}

var _ index.Measured = (*Tree)(nil)
