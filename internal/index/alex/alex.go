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

// dataNode is one gapped array. Slots are logical: search, occ and the model
// all speak of slot s, and every slot keeps its own entry (a gap keeps a stale
// one) exactly as in a plain array. Physically, each full 64-slot block (one
// occupancy word) is a ring with its own rotation: slot s lives at keys[at(s)]
// = keys[s&^63 | (s+rot[s>>6])&63]. That lets insertAt shift a packed run by
// rotating the blocks inside it rather than moving their entries. A partial
// last block never rotates, and every (re)build starts from zero rotations.
type dataNode struct {
	keys  []uint64
	vals  []uint64
	occ   bitset
	rot   []uint8 // per occupancy word, in [0, 64)
	size  int
	model stats.Linear // key -> slot
}

// at maps logical slot s to its index in keys and vals.
func (n *dataNode) at(s int) int { return s&^63 | (s+int(n.rot[s>>6]))&63 }

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
	kv := make([]uint64, 2*c)
	n.keys, n.vals = kv[:c:c], kv[c:]
	n.occ = newBitset(c)
	n.rot = make([]uint8, len(n.occ))
	n.place(keys, vals)
}

// place model-places sorted entries into the node's already sized arrays;
// n.keys/n.vals/n.occ/n.rot must be zeroed and len(n.keys) is the capacity.
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
		base, r := w<<6, int(n.rot[w])
		for ; word != 0; word &= word - 1 {
			i := base | (bits.TrailingZeros64(word)+r)&63
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
	// Inside the landing word one rotation maps every slot.
	base, r := j&^63, int(n.rot[j>>6])
	kj := n.keys[base|(j+r)&63]
	switch {
	case kj == key:
		return j, true, compares
	case kj < key:
		// Walk right over occupied slots until >= key.
		for k, end := j+1, min(j|63+1, c); k < end; k++ {
			if !n.occ.test(k) {
				continue
			}
			compares++
			if kk := n.keys[base|(k+r)&63]; kk >= key {
				return k, kk == key, compares
			}
		}
		return n.walkRight(j>>6+1, key, compares)
	default:
		// Walk left: find the leftmost occupied slot with key' >= key.
		best := j
		for k := j - 1; k >= base; k-- {
			if !n.occ.test(k) {
				continue
			}
			compares++
			kk := n.keys[base|(k+r)&63]
			if kk < key {
				return best, false, compares
			}
			best = k
			if kk == key {
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
		base, r := w<<6, int(n.rot[w])
		if n.keys[base|(63-bits.LeadingZeros64(word)+r)&63] < key {
			compares += bits.OnesCount64(word)
			continue
		}
		for ; ; word &= word - 1 {
			k := bits.TrailingZeros64(word)
			compares++
			if kk := n.keys[base|(k+r)&63]; kk >= key {
				return base + k, kk == key, compares
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
		base, r := w<<6, int(n.rot[w])
		if first := bits.TrailingZeros64(word); n.keys[base|(first+r)&63] > key {
			compares += bits.OnesCount64(word)
			best = base + first
			continue
		}
		for {
			k := 63 - bits.LeadingZeros64(word)
			compares++
			kk := n.keys[base|(k+r)&63]
			if kk < key {
				return best, false, compares
			}
			if kk == key {
				return base + k, true, compares
			}
			best = base + k
			word &^= 1 << uint(k)
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
	return n.vals[n.at(slot)], true
}

// Insert implements index.Ordered.
func (ix *Index) Insert(key, value uint64) {
	ni := ix.nodeFor(key)
	n := ix.nodes[ni]
	slot, found, cmp := n.search(key)
	ix.St.Compares += uint64(cmp)
	if found {
		n.vals[n.at(slot)] = value
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
//
// The shift is logical (see dataNode): shiftRight and shiftLeft leave every
// slot as a plain copy over the run would, but rotate the full blocks inside
// the run by one instead of moving their entries, so a shift costs
// O(run/64 + 64) word moves on the host.
func (n *dataNode) insertAt(pos int, key, value uint64) {
	c := len(n.keys)
	n.size++
	// A gap immediately left of pos can take the entry directly (order
	// is preserved because slots (gapLeft, pos) are unoccupied).
	if pos > 0 && !n.occ.test(pos-1) {
		n.put(pos-1, key, value)
		n.occ.set(pos - 1)
		return
	}
	// Find the first gap right of pos, then shift [pos, gap) right by one.
	// Every slot in [pos, gap) is occupied by construction, so the shifted
	// range ends fully occupied: the occupancy update is one set bit at the
	// consumed gap instead of the old per-slot shuffle.
	if gapR := n.occ.nextClear(pos, c); gapR < c {
		n.shiftRight(pos, gapR)
		n.occ.set(gapR)
		n.put(pos, key, value)
		return
	}
	// No gap to the right: find one to the left and shift left.
	gapL := n.occ.prevClear(pos - 1)
	if gapL < 0 {
		panic("alex: insertAt on a full node")
	}
	n.shiftLeft(gapL, pos-1)
	n.occ.set(gapL)
	n.put(pos-1, key, value)
}

// put writes an entry into slot s.
func (n *dataNode) put(s int, key, value uint64) {
	p := n.at(s)
	n.keys[p], n.vals[p] = key, value
}

// shiftRight moves slots [lo, hi) to [lo+1, hi+1); slot lo keeps its entry.
// Each block strictly inside the run rotates by one, right to left, and its
// last entry, which the rotation would wrap to its front, goes to the next
// block's first slot instead; only the two end blocks move entries.
func (n *dataNode) shiftRight(lo, hi int) {
	b0, b1 := lo>>6, hi>>6
	n.unrotate(b1)
	dst := max(lo, b1<<6)
	n.move(dst+1, dst, hi-dst)
	if b0 == b1 {
		return
	}
	for b := b1 - 1; b > b0; b-- {
		src := n.at(b<<6 + 63)
		n.keys[dst], n.vals[dst] = n.keys[src], n.vals[src]
		n.rot[b] = (n.rot[b] - 1) & 63 // src is now the block's first slot
		dst = src
	}
	n.unrotate(b0)
	end := b0<<6 + 63
	n.keys[dst], n.vals[dst] = n.keys[end], n.vals[end]
	n.move(lo+1, lo, end-lo)
}

// shiftLeft is shiftRight's mirror: slots [lo+1, hi+1) move to [lo, hi),
// slot hi keeps its entry, and the inner blocks rotate left to right.
func (n *dataNode) shiftLeft(lo, hi int) {
	b0, b1 := lo>>6, hi>>6
	n.unrotate(b0)
	dst := min(hi, b0<<6+63)
	n.move(lo, lo+1, dst-lo)
	if b0 == b1 {
		return
	}
	for b := b0 + 1; b < b1; b++ {
		src := n.at(b << 6)
		n.keys[dst], n.vals[dst] = n.keys[src], n.vals[src]
		n.rot[b] = (n.rot[b] + 1) & 63 // src is now the block's last slot
		dst = src
	}
	n.unrotate(b1)
	first := b1 << 6
	n.keys[dst], n.vals[dst] = n.keys[first], n.vals[first]
	n.move(first, first+1, hi-first)
}

// move copies m entries from index src to index dst of keys and vals;
// the ranges may overlap.
func (n *dataNode) move(dst, src, m int) {
	copy(n.keys[dst:dst+m], n.keys[src:src+m])
	copy(n.vals[dst:dst+m], n.vals[src:src+m])
}

// unrotate brings block b's rotation to zero without changing its slots, so
// the end blocks of a shift move entries with a plain copy.
func (n *dataNode) unrotate(b int) {
	r := int(n.rot[b])
	if r == 0 {
		return
	}
	n.rot[b] = 0
	var t [64]uint64
	for _, a := range [2][]uint64{n.keys[b<<6 : b<<6+64], n.vals[b<<6 : b<<6+64]} {
		copy(t[:r], a[:r])
		copy(a, a[r:])
		copy(a[64-r:], t[:r])
	}
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

// Scan implements index.Ordered. It searches once, in lo's node, and does
// not charge that search: from the slot it lands on every occupied key is
// >= lo, so the count is the set bits from there, a word at a time, and then
// each following node's size.
func (ix *Index) Scan(lo uint64, limit int) int {
	if limit < 1 {
		return 0
	}
	ni := ix.nodeFor(lo)
	n := ix.nodes[ni]
	start, _, _ := n.search(lo)
	visited := 0
	if w := start >> 6; w < len(n.occ) {
		visited = bits.OnesCount64(n.occ[w] & (^uint64(0) << (uint(start) & 63)))
		for _, word := range n.occ[w+1:] {
			if visited >= limit {
				return limit
			}
			visited += bits.OnesCount64(word)
		}
	}
	for _, n := range ix.nodes[ni+1:] {
		if visited >= limit {
			return limit
		}
		visited += n.size
	}
	return min(visited, limit)
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
	// Arena layout: one slab of node structs and flat key/value, occupancy
	// and rotation slabs that every node slices into (capacity-capped
	// windows), instead of three allocations per node. Node builds write disjoint windows, so
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
	total := offs[nNodes]
	kvSlab := make([]uint64, 2*total) // keys, then values
	occSlab := make(bitset, woffs[nNodes])
	rotSlab := make([]uint8, woffs[nNodes])
	ix.nodes = make([]*dataNode, nNodes)
	ix.lows = make([]uint64, nNodes)
	build := func(i int) {
		nd := &nodeArr[i]
		nd.keys = kvSlab[offs[i]:offs[i+1]:offs[i+1]]
		nd.vals = kvSlab[total+offs[i] : total+offs[i+1] : total+offs[i+1]]
		nd.occ = occSlab[woffs[i]:woffs[i+1]:woffs[i+1]]
		nd.rot = rotSlab[woffs[i]:woffs[i+1]:woffs[i+1]]
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

var _ index.Measured = (*Index)(nil)
var _ index.Trainable = (*Index)(nil)
