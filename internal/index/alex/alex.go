// Package alex implements an updatable adaptive learned index modelled on
// ALEX (Ding et al., SIGMOD 2020): data nodes store entries in *gapped
// arrays* at positions chosen by a per-node linear model ("model-based
// inserts"), lookups predict a slot and correct with a short local search,
// and nodes expand/split — refitting their models — as data arrives.
//
// Unlike the static RMI, this index learns *online*: it has no separate
// training phase, adapts incrementally to distribution drift, and pays for
// that adaptation with occasional expansion/split latency spikes — the
// precise behaviour the paper's adaptability metrics (Fig 1b/1c) surface.
package alex

import (
	"math/bits"

	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/stats"
)

const (
	// targetDensity is the fill factor applied when (re)building a
	// node's gapped array.
	targetDensity = 0.7
	// expandDensity triggers a node rebuild at twice the capacity.
	expandDensity = 0.85
	// maxNodeSize splits a node into two when exceeded.
	maxNodeSize = 4096
	minCapacity = 16
	// parLoadMin is the key count at which BulkLoad fans per-node builds
	// out over internal/par; nodes write disjoint arena windows, so the
	// result is byte-identical at any parallelism.
	parLoadMin = 1 << 20
)

// bitset is a fixed-size occupancy bitmap over a node's gapped array. One
// cache line covers 512 slots, versus 64 for the []bool it replaces. test()
// inlines and serves the steps a search takes inside its landing word; every
// walk that leaves a word — the search past it, the insert path's gap hunts,
// scans and rebuilds — goes a 64-slot word at a time through the scans below
// and math/bits, turning an O(run) slot-by-slot crawl into O(run/64).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) test(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }
func (b bitset) set(i int)       { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)     { b[i>>6] &^= 1 << (uint(i) & 63) }

// nextClear returns the smallest clear index in [i, limit), or limit.
func (b bitset) nextClear(i, limit int) int {
	if i < 0 {
		i = 0
	}
	for i < limit {
		if w := ^b[i>>6] >> (uint(i) & 63); w != 0 {
			if j := i + bits.TrailingZeros64(w); j < limit {
				return j
			}
			return limit
		}
		i = (i>>6 + 1) << 6
	}
	return limit
}

// prevClear returns the largest clear index in [0, i], or -1 if none.
func (b bitset) prevClear(i int) int {
	for i >= 0 {
		if w := ^b[i>>6] << (63 - uint(i)&63); w != 0 {
			return i - bits.LeadingZeros64(w)
		}
		i = (i>>6)<<6 - 1
	}
	return -1
}

// nextSet returns the smallest set index in [i, limit), or limit.
func (b bitset) nextSet(i, limit int) int {
	for i < limit {
		if w := b[i>>6] >> (uint(i) & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w), limit)
		}
		i = (i>>6 + 1) << 6
	}
	return limit
}

// prevSet returns the largest set index in [0, i], or -1 if none.
func (b bitset) prevSet(i int) int {
	for i >= 0 {
		if w := b[i>>6] << (63 - uint(i)&63); w != 0 {
			return i - bits.LeadingZeros64(w)
		}
		i = (i>>6)<<6 - 1
	}
	return -1
}

// Index is an adaptive learned index. Not safe for concurrent use.
type Index struct {
	nodes []*dataNode // ordered by key range
	lows  []uint64    // lows[i] = smallest key ever routed to nodes[i]
	size  int
	index.Counters
	// sk/sv are collect's buffers: every rebuild and split copies a node's
	// entries out through them, so a long drift run's expands allocate only
	// the arrays the rebuilt node keeps.
	sk, sv []uint64
}

type dataNode struct {
	keys  []uint64
	vals  []uint64
	occ   bitset
	size  int
	model stats.Linear // key -> slot
}

// New returns an empty adaptive index.
func New() *Index {
	n := newNode(nil, nil)
	return &Index{nodes: []*dataNode{n}, lows: []uint64{0}}
}

// Name implements index.Ordered.
func (ix *Index) Name() string { return "alex" }

// Len implements index.Ordered.
func (ix *Index) Len() int { return ix.size }

// ModelCount implements index.Trainable.
func (ix *Index) ModelCount() int { return len(ix.nodes) }

// Retrain implements index.Trainable: rebuilds every node's gapped array
// and model at the target density. Called explicitly by scenarios that
// schedule retraining windows; the index also adapts on its own.
func (ix *Index) Retrain() int {
	work := 0
	for _, n := range ix.nodes {
		ix.rebuild(n, n.capacityFor(n.size))
		work += n.size + 1
	}
	return work
}

// newNode builds a node from sorted keys/values (may be empty) at the
// default density.
func newNode(keys, vals []uint64) *dataNode {
	n := &dataNode{}
	n.loadSortedCap(keys, vals, n.capacityFor(len(keys)))
	return n
}

func (n *dataNode) capacityFor(m int) int {
	c := int(float64(m)/targetDensity) + 1
	if c < minCapacity {
		c = minCapacity
	}
	return c
}

// normCap raises a requested gapped-array capacity to fit m entries plus
// one gap and the minimum capacity floor.
func normCap(m, c int) int {
	if c <= m {
		c = m + 1
	}
	if c < minCapacity {
		c = minCapacity
	}
	return c
}

// loadSortedCap installs sorted entries into a gapped array of the given
// capacity (raised to fit if needed) using model-based placement.
func (n *dataNode) loadSortedCap(keys, vals []uint64, c int) {
	c = normCap(len(keys), c)
	n.keys = make([]uint64, c)
	n.vals = make([]uint64, c)
	n.occ = newBitset(c)
	n.place(keys, vals)
}

// place model-places sorted entries into the node's already sized arrays;
// n.keys/n.vals/n.occ must be zeroed and len(n.keys) is the capacity.
func (n *dataNode) place(keys, vals []uint64) {
	c := len(n.keys)
	m := len(keys)
	n.size = m
	if m == 0 {
		n.model = stats.Linear{}
		return
	}
	// Fit rank = f(key) over the sorted input, scaled to capacity.
	n.model = stats.FitLinearKeys(keys)
	scale := float64(c) / float64(m)
	n.model.Slope *= scale
	n.model.Intercept *= scale
	prev := -1
	for i, k := range keys {
		slot := n.model.PredictClamped(float64(k), c)
		if slot <= prev {
			slot = prev + 1
		}
		// Keep room for the remaining entries.
		if maxSlot := c - (m - i); slot > maxSlot {
			slot = maxSlot
		}
		n.keys[slot] = k
		n.vals[slot] = vals[i]
		n.occ.set(slot)
		prev = slot
	}
}

// collect copies the node's entries out in key order, a word of occupancy
// at a time, into the index's scratch; the result is valid until the next
// collect.
func (ix *Index) collect(n *dataNode) (keys, vals []uint64) {
	keys, vals = ix.sk[:0], ix.sv[:0]
	for w, word := range n.occ {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			keys = append(keys, n.keys[i])
			vals = append(vals, n.vals[i])
		}
	}
	ix.sk, ix.sv = keys, vals
	return keys, vals
}

// rebuild re-gaps the node at the given capacity.
func (ix *Index) rebuild(n *dataNode, capacity int) {
	keys, vals := ix.collect(n)
	n.loadSortedCap(keys, vals, capacity)
}

// search returns the slot holding key (found=true), or the slot of the
// smallest occupied key greater than key (found=false; slot==len if none).
//
// compares counts the occupied slots the walk passes — one per slot from the
// landing slot to the answer, which is what the virtual clock charges. How
// the host finds those slots is free: inside the landing word (where a fresh
// model's prediction is a step or two from its answer) the walk tests slot by
// slot inline; once it leaves that word it goes by occupancy word (walkRight
// and walkLeft), and a stale model that clamps every prediction to the node's
// end costs the host run/64 steps while compares still counts the run.
func (n *dataNode) search(key uint64) (slot int, found bool, compares int) {
	c := len(n.keys)
	if n.size == 0 {
		return c, false, 0
	}
	i := n.model.PredictClamped(float64(key), c)
	// Land on the first occupied slot at or right of the prediction, else
	// the last one left of it.
	j, end := i, min(i|63+1, c)
	for j < end && !n.occ.test(j) {
		j++
	}
	if j == end {
		if j = n.occ.nextSet(end, c); j == c {
			j = n.occ.prevSet(i)
		}
	}
	compares = 1
	switch {
	case n.keys[j] == key:
		return j, true, compares
	case n.keys[j] < key:
		// Walk right over occupied slots until >= key.
		for k, end := j+1, min(j|63+1, c); k < end; k++ {
			if !n.occ.test(k) {
				continue
			}
			compares++
			if n.keys[k] >= key {
				return k, n.keys[k] == key, compares
			}
		}
		return n.walkRight(j>>6+1, key, compares)
	default:
		// Walk left: find the leftmost occupied slot with key' >= key.
		best := j
		for k := j - 1; k >= j&^63; k-- {
			if !n.occ.test(k) {
				continue
			}
			compares++
			if n.keys[k] < key {
				return best, false, compares
			}
			best = k
			if n.keys[k] == key {
				return k, true, compares
			}
		}
		return n.walkLeft(j>>6-1, key, best, compares)
	}
}

// walkRight continues search's walk right from occupancy word w. A word whose
// last occupied key is still below key is passed whole: the slot walk would
// have compared each of its occupied slots, so compares takes its popcount.
func (n *dataNode) walkRight(w int, key uint64, compares int) (int, bool, int) {
	for ; w < len(n.occ); w++ {
		word := n.occ[w]
		if word == 0 {
			continue
		}
		if n.keys[w<<6+63-bits.LeadingZeros64(word)] < key {
			compares += bits.OnesCount64(word)
			continue
		}
		for ; ; word &= word - 1 {
			k := w<<6 + bits.TrailingZeros64(word)
			compares++
			if n.keys[k] >= key {
				return k, n.keys[k] == key, compares
			}
		}
	}
	return len(n.keys), false, compares
}

// walkLeft is walkRight's mirror, from word w down: best is the leftmost slot
// seen so far with a key above key, and a word whose first occupied key is
// still above key is passed whole.
func (n *dataNode) walkLeft(w int, key uint64, best, compares int) (int, bool, int) {
	for ; w >= 0; w-- {
		word := n.occ[w]
		if word == 0 {
			continue
		}
		if first := w<<6 + bits.TrailingZeros64(word); n.keys[first] > key {
			compares += bits.OnesCount64(word)
			best = first
			continue
		}
		for {
			k := w<<6 + 63 - bits.LeadingZeros64(word)
			compares++
			if n.keys[k] < key {
				return best, false, compares
			}
			if n.keys[k] == key {
				return k, true, compares
			}
			best = k
			word &^= 1 << (uint(k) & 63)
		}
	}
	return best, false, compares
}

// nodeFor routes a key to its data node index.
func (ix *Index) nodeFor(key uint64) int {
	// lows[i] is the routing boundary: node i serves keys in
	// [lows[i], lows[i+1]).
	i := search.UpperBound(ix.lows, key)
	if i == 0 {
		return 0
	}
	return i - 1
}

// Get implements index.Ordered.
func (ix *Index) Get(key uint64) (uint64, bool) {
	ix.St.Searches++
	n := ix.nodes[ix.nodeFor(key)]
	slot, found, cmp := n.search(key)
	ix.St.Compares += uint64(cmp)
	if !found {
		return 0, false
	}
	return n.vals[slot], true
}

// Insert implements index.Ordered.
func (ix *Index) Insert(key, value uint64) {
	ni := ix.nodeFor(key)
	n := ix.nodes[ni]
	slot, found, cmp := n.search(key)
	ix.St.Compares += uint64(cmp)
	if found {
		n.vals[slot] = value
		return
	}
	n.insertAt(slot, key, value)
	ix.size++

	if float64(n.size) > expandDensity*float64(len(n.keys)) {
		ix.St.Splits++
		ix.St.TrainWork += uint64(n.size)
		if n.size > maxNodeSize {
			ix.splitNode(ni)
		} else {
			ix.rebuild(n, n.capacityFor(n.size*2))
		}
	}
}

// insertAt places key before the occupied slot `pos` (pos may be len for
// append). A gap just left of pos takes the key directly. Otherwise the
// slots from pos shift right into the first gap right of pos whenever one
// exists, however far away, and left into the first gap left of pos only
// when none does. The ALEX paper shifts toward the closer gap, which moves
// fewer slots; switching rules would change slot layout and with it the
// priced compares. The node has a gap: Insert expands or splits a node the
// moment it passes expandDensity, and every (re)build leaves at least one.
func (n *dataNode) insertAt(pos int, key, value uint64) {
	c := len(n.keys)
	n.size++
	// A gap immediately left of pos can take the entry directly (order
	// is preserved because slots (gapLeft, pos) are unoccupied).
	if pos > 0 && !n.occ.test(pos-1) {
		n.keys[pos-1] = key
		n.vals[pos-1] = value
		n.occ.set(pos - 1)
		return
	}
	// Find the first gap right of pos, then shift [pos, gap) right by one.
	// Every slot in [pos, gap) is occupied by construction, so the shifted
	// range ends fully occupied: the occupancy update is one set bit at the
	// consumed gap instead of the old per-slot shuffle.
	if gapR := n.occ.nextClear(pos, c); gapR < c {
		copy(n.keys[pos+1:gapR+1], n.keys[pos:gapR])
		copy(n.vals[pos+1:gapR+1], n.vals[pos:gapR])
		n.occ.set(gapR)
		n.keys[pos] = key
		n.vals[pos] = value
		return
	}
	// No gap to the right: find one to the left and shift left.
	gapL := n.occ.prevClear(pos - 1)
	if gapL < 0 {
		panic("alex: insertAt on a full node")
	}
	copy(n.keys[gapL:pos-1], n.keys[gapL+1:pos])
	copy(n.vals[gapL:pos-1], n.vals[gapL+1:pos])
	n.occ.set(gapL)
	n.keys[pos-1] = key
	n.vals[pos-1] = value
}

// splitNode splits nodes[ni] into two equal halves.
func (ix *Index) splitNode(ni int) {
	n := ix.nodes[ni]
	keys, vals := ix.collect(n)
	mid := len(keys) / 2
	left := newNode(keys[:mid], vals[:mid])
	right := newNode(keys[mid:], vals[mid:])
	ix.nodes[ni] = left
	ix.nodes = append(ix.nodes, nil)
	copy(ix.nodes[ni+2:], ix.nodes[ni+1:])
	ix.nodes[ni+1] = right
	ix.lows = append(ix.lows, 0)
	copy(ix.lows[ni+2:], ix.lows[ni+1:])
	ix.lows[ni+1] = keys[mid]
}

// Delete implements index.Ordered: clears the slot (gap reclaimed by later
// inserts or rebuilds).
func (ix *Index) Delete(key uint64) bool {
	n := ix.nodes[ix.nodeFor(key)]
	slot, found, cmp := n.search(key)
	ix.St.Compares += uint64(cmp)
	if !found {
		return false
	}
	n.occ.clear(slot)
	n.size--
	ix.size--
	return true
}

// Scan implements index.Ordered. It searches once, in lo's node; from that
// slot on every occupied key is >= lo, so the rest is set bits in order.
func (ix *Index) Scan(lo, hi uint64, fn func(key, value uint64) bool) int {
	if hi < lo {
		return 0
	}
	visited := 0
	ni := ix.nodeFor(lo)
	start, _, _ := ix.nodes[ni].search(lo)
	for ; ni < len(ix.nodes); ni++ {
		n := ix.nodes[ni]
		for w := start >> 6; w < len(n.occ); w++ {
			word := n.occ[w]
			if w == start>>6 {
				word &= ^uint64(0) << (uint(start) & 63)
			}
			for ; word != 0; word &= word - 1 {
				i := w<<6 + bits.TrailingZeros64(word)
				if n.keys[i] > hi {
					return visited
				}
				visited++
				if !fn(n.keys[i], n.vals[i]) {
					return visited
				}
			}
		}
		start = 0
	}
	return visited
}

// BulkLoad implements index.BulkLoader: partitions sorted data into nodes
// of at most maxNodeSize/2 entries and model-loads each.
func (ix *Index) BulkLoad(keys, values []uint64) {
	if len(keys) != len(values) {
		panic("alex: BulkLoad length mismatch")
	}
	ix.size = len(keys)
	ix.St = index.Stats{}
	if len(keys) == 0 {
		ix.nodes = append(ix.nodes[:0], newNode(nil, nil))
		ix.lows = append(ix.lows[:0], 0)
		return
	}
	// Arena layout: one slab of node structs and flat key/value/occupancy
	// slabs that every node slices into (capacity-capped windows), instead
	// of three allocations per node. Node builds write disjoint windows, so
	// large loads fan out over internal/par without changing a byte.
	per := maxNodeSize / 2
	n := len(keys)
	nNodes := (n + per - 1) / per
	nodeArr := make([]dataNode, nNodes)
	offs := make([]int, nNodes+1)   // slot offsets into key/val slabs
	woffs := make([]int, nNodes+1)  // word offsets into the occupancy slab
	starts := make([]int, nNodes+1) // entry offsets into the input
	for i := 0; i < nNodes; i++ {
		starts[i] = i * per
		sz := per
		if rest := n - starts[i]; sz > rest {
			sz = rest
		}
		c := normCap(sz, (&nodeArr[i]).capacityFor(sz))
		offs[i+1] = offs[i] + c
		woffs[i+1] = woffs[i] + (c+63)>>6
	}
	starts[nNodes] = n
	keySlab := make([]uint64, offs[nNodes])
	valSlab := make([]uint64, offs[nNodes])
	occSlab := make(bitset, woffs[nNodes])
	ix.nodes = make([]*dataNode, nNodes)
	ix.lows = make([]uint64, nNodes)
	build := func(i int) {
		nd := &nodeArr[i]
		nd.keys = keySlab[offs[i]:offs[i+1]:offs[i+1]]
		nd.vals = valSlab[offs[i]:offs[i+1]:offs[i+1]]
		nd.occ = occSlab[woffs[i]:woffs[i+1]:woffs[i+1]]
		nd.place(keys[starts[i]:starts[i+1]], values[starts[i]:starts[i+1]])
		ix.nodes[i] = nd
		if i > 0 {
			ix.lows[i] = keys[starts[i]]
		}
	}
	if n >= parLoadMin {
		par.ForEach(nNodes, 0, func(i int) error {
			build(i)
			return nil
		})
	} else {
		for i := 0; i < nNodes; i++ {
			build(i)
		}
	}
}

// NodeCount reports the number of data nodes (structure growth signal).
func (ix *Index) NodeCount() int { return len(ix.nodes) }

var _ index.Ordered = (*Index)(nil)
var _ index.BulkLoader = (*Index)(nil)
var _ index.Trainable = (*Index)(nil)
var _ index.Instrumented = (*Index)(nil)
