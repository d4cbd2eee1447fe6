package alex

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/distgen"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/stats"
)

// This file holds the slot-by-slot algorithms the word kernels replaced,
// written out as they stood, and holds the index to them: the kernels may
// change how the host finds occupied slots, never which slots, gaps, answers
// or counts come out.

// refSearch is search as one occ.test and one key comparison per slot.
func refSearch(n *dataNode, key uint64) (slot int, found bool, compares int) {
	c := len(n.keys)
	if c == 0 || n.size == 0 {
		return c, false, 0
	}
	i := n.model.PredictClamped(float64(key), c)
	j := i
	for j < c && !n.occ.test(j) {
		j++
	}
	if j == c {
		if i > c-1 {
			i = c - 1
		}
		j = i
		for j >= 0 && !n.occ.test(j) {
			j--
		}
		if j < 0 {
			return c, false, compares
		}
	}
	compares++
	switch {
	case n.keys[j] == key:
		return j, true, compares
	case n.keys[j] < key:
		for k := j + 1; k < c; k++ {
			if !n.occ.test(k) {
				continue
			}
			compares++
			if n.keys[k] >= key {
				return k, n.keys[k] == key, compares
			}
		}
		return c, false, compares
	default:
		best := j
		for k := j - 1; k >= 0; k-- {
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
		return best, false, compares
	}
}

// refIndex is the index over refSearch, with the per-slot collect and Scan
// and a fresh pair of slices per rebuild. It shares dataNode and the builders
// the kernels left alone (loadSortedCap, place, capacityFor). Its nodes never
// rotate (refInsertAt shifts with a plain copy), so their arrays are in slot
// order and it reads them directly.
type refIndex struct {
	nodes []*dataNode
	lows  []uint64
	size  int
	st    index.Stats
}

// refFrom deep-copies ix slot by slot into unrotated nodes, so both sides
// start from one bulk-loaded layout.
func refFrom(ix *Index) *refIndex {
	r := &refIndex{lows: slices.Clone(ix.lows), size: ix.size, st: ix.St}
	for _, n := range ix.nodes {
		keys, vals := logical(n)
		r.nodes = append(r.nodes, &dataNode{
			keys: keys, vals: vals, occ: slices.Clone(n.occ),
			rot: make([]uint8, len(n.occ)), size: n.size, model: n.model,
		})
	}
	return r
}

// logical returns a copy of the node's arrays in slot order, gaps included.
func logical(n *dataNode) (keys, vals []uint64) {
	keys, vals = make([]uint64, len(n.keys)), make([]uint64, len(n.vals))
	for s := range keys {
		keys[s], vals[s] = n.keys[n.at(s)], n.vals[n.at(s)]
	}
	return keys, vals
}

func (r *refIndex) nodeFor(key uint64) int {
	return max(search.UpperBound(r.lows, key)-1, 0)
}

func refCollect(n *dataNode) (keys, vals []uint64) {
	for i := range n.keys {
		if n.occ.test(i) {
			keys = append(keys, n.keys[i])
			vals = append(vals, n.vals[i])
		}
	}
	return keys, vals
}

func refRebuild(n *dataNode, capacity int) {
	keys, vals := refCollect(n)
	n.loadSortedCap(keys, vals, capacity)
}

func (r *refIndex) Retrain() int {
	work := 0
	for _, n := range r.nodes {
		refRebuild(n, n.capacityFor(n.size))
		work += n.size + 1
	}
	return work
}

func (r *refIndex) Get(key uint64) (uint64, bool) {
	r.st.Searches++
	n := r.nodes[r.nodeFor(key)]
	slot, found, cmp := refSearch(n, key)
	r.st.Compares += uint64(cmp)
	if !found {
		return 0, false
	}
	return n.vals[slot], true
}

func (r *refIndex) Insert(key, value uint64) {
	ni := r.nodeFor(key)
	n := r.nodes[ni]
	slot, found, cmp := refSearch(n, key)
	r.st.Compares += uint64(cmp)
	if found {
		n.vals[slot] = value
		return
	}
	refInsertAt(n, slot, key, value)
	r.size++
	if float64(n.size) > expandDensity*float64(len(n.keys)) {
		r.st.Splits++
		r.st.TrainWork += uint64(n.size)
		if n.size > maxNodeSize {
			r.splitNode(ni)
		} else {
			refRebuild(n, n.capacityFor(n.size*2))
		}
	}
}

func refInsertAt(n *dataNode, pos int, key, value uint64) {
	c := len(n.keys)
	if pos > 0 && !n.occ.test(pos-1) {
		n.keys[pos-1], n.vals[pos-1] = key, value
		n.occ.set(pos - 1)
		n.size++
		return
	}
	if gapR := n.occ.nextClear(pos, c); gapR < c {
		copy(n.keys[pos+1:gapR+1], n.keys[pos:gapR])
		copy(n.vals[pos+1:gapR+1], n.vals[pos:gapR])
		n.occ.set(gapR)
		n.keys[pos], n.vals[pos] = key, value
		n.size++
		return
	}
	if gapL := n.occ.prevClear(pos - 1); gapL >= 0 {
		copy(n.keys[gapL:pos-1], n.keys[gapL+1:pos])
		copy(n.vals[gapL:pos-1], n.vals[gapL+1:pos])
		n.occ.set(gapL)
		n.keys[pos-1], n.vals[pos-1] = key, value
		n.size++
		return
	}
	refRebuild(n, n.capacityFor(n.size*2))
	slot, _, _ := refSearch(n, key)
	refInsertAt(n, slot, key, value)
}

func (r *refIndex) splitNode(ni int) {
	keys, vals := refCollect(r.nodes[ni])
	mid := len(keys) / 2
	r.nodes[ni] = newNode(keys[:mid], vals[:mid])
	r.nodes = slices.Insert(r.nodes, ni+1, newNode(keys[mid:], vals[mid:]))
	r.lows = slices.Insert(r.lows, ni+1, keys[mid])
}

func (r *refIndex) Delete(key uint64) bool {
	n := r.nodes[r.nodeFor(key)]
	slot, found, cmp := refSearch(n, key)
	r.st.Compares += uint64(cmp)
	if !found {
		return false
	}
	n.occ.clear(slot)
	n.size--
	r.size--
	return true
}

func (r *refIndex) Scan(lo uint64, limit int) int {
	visited := 0
	for ni := r.nodeFor(lo); ni < len(r.nodes) && visited < limit; ni++ {
		n := r.nodes[ni]
		start := 0
		if ni == r.nodeFor(lo) {
			start, _, _ = refSearch(n, lo)
		}
		for i := start; i < len(n.keys) && visited < limit; i++ {
			if n.occ.test(i) && n.keys[i] >= lo {
				visited++
			}
		}
	}
	return visited
}

// sameLayout requires every node's slots read through its rotations (gaps
// included), occupancy, size and model to match the reference's, and no
// rotation on a partial block or outside [0, 64). It returns how many blocks
// are rotated.
func sameLayout(t *testing.T, op int, ix *Index, ref *refIndex) (rotated int) {
	t.Helper()
	if !slices.Equal(ix.lows, ref.lows) || len(ix.nodes) != len(ref.nodes) || ix.size != ref.size {
		t.Fatalf("op %d: routing diverged: %d nodes size %d, want %d / %d", op, len(ix.nodes), ix.size, len(ref.nodes), ref.size)
	}
	for ni, n := range ix.nodes {
		w := ref.nodes[ni]
		keys, vals := logical(n)
		if n.size != w.size || n.model != w.model || !slices.Equal(n.occ, w.occ) ||
			!slices.Equal(keys, w.keys) || !slices.Equal(vals, w.vals) {
			t.Fatalf("op %d: node %d layout diverged from the slot-by-slot reference", op, ni)
		}
		checkRotations(t, n)
		for _, r := range n.rot {
			if r != 0 {
				rotated++
			}
		}
	}
	return rotated
}

// TestSearchMatchesSlotWalk: on random nodes — sparse to full, packed runs
// across word boundaries, capacities off the word grid, fresh and stale
// models, unrotated and with random rotations on every full block — search
// returns the reference's (slot, found, compares) for keys below, above,
// between and equal to the node's.
func TestSearchMatchesSlotWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	caps := []int{16, 17, 63, 64, 65, 100, 127, 128, 129, 200, 333, 1000, 2926}
	for trial := 0; trial < 600; trial++ {
		c := caps[trial%len(caps)]
		density := 0.2 + 0.8*rng.Float64()
		size := int(density * float64(c))
		switch trial % 7 {
		case 0:
			size = 0
		case 1:
			size = 1
		case 2:
			size = c // no gap at all: every word full, the last one partial
		}
		n := &dataNode{keys: make([]uint64, c), vals: make([]uint64, c), occ: newBitset(c), size: size}
		n.rot = make([]uint8, len(n.occ))
		// Occupied slots: a packed run from a random start (so runs cross
		// word boundaries and reach either end), the rest scattered.
		perm := rng.Perm(c)
		run := rng.Intn(size + 1)
		at := rng.Intn(c - run + 1)
		for s := at; s < at+run; s++ {
			n.occ.set(s)
		}
		for _, s := range perm {
			if run == size {
				break
			}
			if !n.occ.test(s) {
				n.occ.set(s)
				run++
			}
		}
		var keys []uint64
		k := uint64(1000)
		for s := 0; s < c; s++ {
			if n.occ.test(s) {
				k += 2 + uint64(rng.Intn(50))
				n.keys[s], n.vals[s] = k, k^7
				keys = append(keys, k)
			}
		}
		models := []stats.Linear{
			{Intercept: float64(c)}, // stale: clamps every key to the node's end
			{Intercept: -1},         // stale the other way: clamps to slot 0
			{Intercept: float64(rng.Intn(c))},
		}
		if len(keys) > 0 {
			m := stats.FitLinearKeys(keys)
			scale := float64(c) / float64(len(keys))
			m.Slope, m.Intercept = m.Slope*scale, m.Intercept*scale
			models = append(models, m)
		}
		probes := []uint64{0, 999, k + 1, ^uint64(0)}
		for _, key := range keys {
			probes = append(probes, key-1, key, key+1)
		}
		twin := rotatedTwin(n, func(int) uint8 { return uint8(1 + rng.Intn(63)) })
		for _, m := range models {
			n.model, twin.model = m, m
			for _, key := range probes {
				ws, wf, wc := refSearch(n, key)
				for _, nd := range []*dataNode{n, twin} {
					gs, gf, gc := nd.search(key)
					if gs != ws || gf != wf || gc != wc {
						t.Fatalf("trial %d cap %d size %d rot %v model %+v key %d: search = (%d,%v,%d), slot walk = (%d,%v,%d)",
							trial, c, size, nd.rot, m, key, gs, gf, gc, ws, wf, wc)
					}
				}
			}
		}
	}
}

// TestMixedRunMatchesReference drives 200k mixed ops — clustered inserts that
// climb above the loaded range (nodes pack against a stale model, expand and
// split), overwrites, deletes, gets, bounded scans, a few Retrains — through
// the index and the reference side by side.
func TestMixedRunMatchesReference(t *testing.T) {
	base := distgen.UniqueKeys(distgen.NewZipfKeys(5, 1.1, 1<<24), 20000)
	slices.Sort(base)
	ix := New()
	ix.BulkLoad(base, base)
	ref := refFrom(ix)
	rng := rand.New(rand.NewSource(23))
	live := slices.Clone(base)
	front := base[len(base)-1] // clusters climb from the top of the loaded range
	rotated := 0               // rotated blocks summed over the layout checks
	for op := 0; op < 200000; op++ {
		pick := live[rng.Intn(len(live))]
		switch r := rng.Intn(100); {
		case r < 45: // clustered insert, mostly new keys
			if rng.Intn(400) == 0 {
				front += 1 << 20
			}
			k := front + uint64(rng.Intn(30000))
			if rng.Intn(4) == 0 {
				k = pick + 1 + uint64(rng.Intn(16)) // and some beside keys already there
			}
			ix.Insert(k, uint64(op))
			ref.Insert(k, uint64(op))
			live = append(live, k)
		case r < 50:
			ix.Insert(pick, uint64(op))
			ref.Insert(pick, uint64(op))
		case r < 62:
			if g, w := ix.Delete(pick), ref.Delete(pick); g != w {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, pick, g, w)
			}
		case r < 85:
			k := pick + uint64(rng.Intn(3)) - 1
			gv, gok := ix.Get(k)
			wv, wok := ref.Get(k)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", op, k, gv, gok, wv, wok)
			}
		case r < 99:
			lo, limit := pick-uint64(rng.Intn(2)), 1+rng.Intn(300)
			if rng.Intn(4) == 0 {
				limit = ref.size + 1 // to the end
			}
			if gn, wn := ix.Scan(lo, limit), ref.Scan(lo, limit); gn != wn {
				t.Fatalf("op %d: Scan(%d, %d) visited %d, want %d", op, lo, limit, gn, wn)
			}
		default:
			if rng.Intn(20) == 0 {
				if g, w := ix.Retrain(), ref.Retrain(); g != w {
					t.Fatalf("op %d: Retrain work %d, want %d", op, g, w)
				}
			}
		}
		if ix.Stats() != ref.st || ix.Len() != ref.size {
			t.Fatalf("op %d: Stats %+v Len %d, want %+v Len %d", op, ix.Stats(), ix.Len(), ref.st, ref.size)
		}
		if op%512 == 0 {
			rotated += sameLayout(t, op, ix, ref)
		}
	}
	rotated += sameLayout(t, 200000, ix, ref)
	splits := ix.ModelCount() - (len(base)+maxNodeSize/2-1)/(maxNodeSize/2)
	if expands := int(ix.Stats().Splits) - splits; splits < 5 || expands < 5 || rotated < 100 {
		t.Fatalf("run too tame to mean anything: %d splits, %d expands, %d rotated blocks", splits, expands, rotated)
	}
}

// TestExpandAllocatesOnlyTheNode: once the scratch has grown to a node's size,
// an insert that triggers an expand allocates the rebuilt node's three arrays
// (keys and values share one, then occupancy and rotations) and nothing else.
func TestExpandAllocatesOnlyTheNode(t *testing.T) {
	const per = maxNodeSize / 2
	keys := make([]uint64, 12*per)
	for i := range keys {
		keys[i] = uint64(i) * 1000
	}
	ix := New()
	ix.BulkLoad(keys, keys)
	node := 0
	// Each run fills a node nobody has touched yet up to its expand.
	allocs := testing.AllocsPerRun(10, func() {
		was := ix.St.Splits
		for i := node * per; ix.St.Splits == was; i++ {
			ix.Insert(keys[i]+1, 0)
		}
		node++
	})
	if allocs != 3 || ix.ModelCount() != 12 {
		t.Fatalf("expand allocated %v objects per run (%d nodes), want the node's 3 arrays", allocs, ix.ModelCount())
	}
}

func TestNextSetPrevSet(t *testing.T) {
	b := newBitset(200) // 4 words, the last one partial
	for _, i := range []int{0, 63, 64, 130, 199} {
		b.set(i)
	}
	for _, c := range []struct{ i, limit, want int }{
		{0, 200, 0},     // bit 0
		{1, 200, 63},    // bit 63
		{64, 200, 64},   // first bit of a word
		{65, 200, 130},  // over the rest of word 1 (empty from 65 on)
		{65, 100, 100},  // limit inside a word, before the next set bit
		{131, 200, 199}, // through to the partial last word
		{131, 199, 199}, // the set bit is the limit: not in [i, limit)
		{131, 150, 150},
		{200, 200, 200},
	} {
		if got := b.nextSet(c.i, c.limit); got != c.want {
			t.Errorf("nextSet(%d, %d) = %d, want %d", c.i, c.limit, got, c.want)
		}
	}
	for _, c := range []struct{ i, want int }{
		{199, 199}, {198, 130}, {129, 64}, {64, 64}, {63, 63}, {62, 0}, {0, 0},
	} {
		if got := b.prevSet(c.i); got != c.want {
			t.Errorf("prevSet(%d) = %d, want %d", c.i, got, c.want)
		}
	}
	empty := newBitset(130)
	if got := empty.nextSet(0, 130); got != 130 {
		t.Errorf("nextSet on empty words = %d, want 130", got)
	}
	if got := empty.prevSet(129); got != -1 {
		t.Errorf("prevSet on empty words = %d, want -1", got)
	}
	empty.set(70)
	if got := empty.prevSet(69); got != -1 {
		t.Errorf("prevSet below the only set bit = %d, want -1", got)
	}
}
