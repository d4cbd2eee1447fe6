package rmi

import (
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/stats"
)

// flatRMI is the reference the blocked delta answers to: the RMI with its
// delta kept as one flat sorted pair of arrays, shifted by copy on every
// insert — the layout the shift price is a model of — with that price
// formula and the merge threshold written out. The main array's search and
// training are the Index's own, reached through an Index whose delta and
// tombstones stay empty.
type flatRMI struct {
	main   *Index
	dk, dv []uint64
	tomb   map[uint64]struct{}
	st     index.Stats // what the delta side adds to main.st
}

func newFlatRMI(stage2 int) *flatRMI {
	return &flatRMI{main: New(stage2), tomb: map[uint64]struct{}{}}
}

func (f *flatRMI) stats() index.Stats {
	s := f.main.st
	s.Searches += f.st.Searches
	s.Compares += f.st.Compares
	s.Splits += f.st.Splits
	s.TrainWork += f.st.TrainWork
	return s
}

func (f *flatRMI) len() int { return len(f.main.keys) + len(f.dk) - len(f.tomb) }

func (f *flatRMI) deltaPos(key uint64) (int, bool) {
	j := search.LowerBound(f.dk, key)
	return j, j < len(f.dk) && f.dk[j] == key
}

func (f *flatRMI) bulkLoad(keys, vals []uint64) {
	f.main.keys = append(f.main.keys[:0], keys...)
	f.main.values = append(f.main.values[:0], vals...)
	f.dk, f.dv, f.tomb = f.dk[:0], f.dv[:0], map[uint64]struct{}{}
	f.retrain()
}

func (f *flatRMI) retrain() int {
	work := 0
	if len(f.dk) > 0 || len(f.tomb) > 0 {
		var mk, mv []uint64
		i, j := 0, 0
		for i < len(f.main.keys) || j < len(f.dk) {
			var k, v uint64
			if i >= len(f.main.keys) || (j < len(f.dk) && f.dk[j] <= f.main.keys[i]) {
				k, v = f.dk[j], f.dv[j]
				if i < len(f.main.keys) && f.main.keys[i] == k {
					i++
				}
				j++
			} else {
				k, v = f.main.keys[i], f.main.values[i]
				i++
			}
			if _, dead := f.tomb[k]; !dead {
				mk, mv = append(mk, k), append(mv, v)
			}
		}
		work += len(mk)
		f.main.keys, f.main.values = mk, mv
		f.dk, f.dv, f.tomb = f.dk[:0], f.dv[:0], map[uint64]struct{}{}
	}
	return work + f.main.Retrain()
}

func (f *flatRMI) get(key uint64) (uint64, bool) {
	f.st.Searches++
	if _, dead := f.tomb[key]; dead {
		return 0, false
	}
	if j, ok := f.deltaPos(key); ok {
		return f.dv[j], true
	}
	if i, ok := f.main.searchMain(key); ok {
		return f.main.values[i], true
	}
	return 0, false
}

func (f *flatRMI) insert(key, value uint64) {
	delete(f.tomb, key)
	if i, ok := f.main.searchMain(key); ok {
		f.main.values[i] = value
		return
	}
	j, ok := f.deltaPos(key)
	if ok {
		f.dv[j] = value
		return
	}
	f.dk = slices.Insert(f.dk, j, key)
	f.dv = slices.Insert(f.dv, j, value)
	f.st.Compares += uint64((len(f.dk) - j) / 4)
	if len(f.main.keys) > 0 && float64(len(f.dk)) > deltaMergeThreshold*float64(len(f.main.keys)) {
		f.st.Splits++
		f.st.TrainWork += uint64(f.retrain())
	}
}

func (f *flatRMI) delete(key uint64) bool {
	if _, dead := f.tomb[key]; dead {
		return false
	}
	if j, ok := f.deltaPos(key); ok {
		f.dk = slices.Delete(f.dk, j, j+1)
		f.dv = slices.Delete(f.dv, j, j+1)
		return true
	}
	if _, ok := f.main.searchMain(key); ok {
		f.tomb[key] = struct{}{}
		return true
	}
	return false
}

func (f *flatRMI) scan(lo, hi uint64, fn func(k, v uint64) bool) int {
	if hi < lo {
		return 0
	}
	mk := f.main.keys
	i, _ := f.main.searchMain(lo)
	if !f.main.trained {
		i = search.LowerBound(mk, lo)
	}
	for i > 0 && mk[i-1] >= lo {
		i--
	}
	for i < len(mk) && mk[i] < lo {
		i++
	}
	j, _ := f.deltaPos(lo)
	visited := 0
	for i < len(mk) || j < len(f.dk) {
		var k, v uint64
		if i >= len(mk) || (j < len(f.dk) && f.dk[j] <= mk[i]) {
			k, v = f.dk[j], f.dv[j]
			if i < len(mk) && mk[i] == k {
				i++
			}
			j++
		} else {
			k, v = mk[i], f.main.values[i]
			i++
		}
		if k > hi {
			break
		}
		if _, dead := f.tomb[k]; dead {
			continue
		}
		visited++
		if !fn(k, v) {
			break
		}
	}
	return visited
}

// checkDelta verifies the layout's invariants and returns the run it holds.
func checkDelta(t *testing.T, d *delta) (keys, vals []uint64) {
	t.Helper()
	if len(d.first) != len(d.blocks) || len(d.cnt) != len(d.blocks) {
		t.Fatalf("directory lengths %d/%d/%d", len(d.first), len(d.cnt), len(d.blocks))
	}
	for b, blk := range d.blocks {
		if d.cnt[b] < 1 || d.cnt[b] > deltaBlockCap {
			t.Fatalf("block %d holds %d pairs", b, d.cnt[b])
		}
		if d.first[b] != blk.keys[0] {
			t.Fatalf("first[%d] = %d, block starts at %d", b, d.first[b], blk.keys[0])
		}
		keys = append(keys, blk.keys[:d.cnt[b]]...)
		vals = append(vals, blk.vals[:d.cnt[b]]...)
	}
	if len(keys) != d.n {
		t.Fatalf("n = %d, blocks hold %d", d.n, len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("run not strictly sorted at %d: %d, %d", i, keys[i-1], keys[i])
		}
	}
	i := 0
	for c := d.seek(0); c.valid(); c.next() {
		if k, v := c.pair(); i >= len(keys) || k != keys[i] || v != vals[i] {
			t.Fatalf("cursor pair %d = %d→%d", i, k, v)
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("cursor yielded %d of %d pairs", i, len(keys))
	}
	return keys, vals
}

// TestBlockedDeltaMatchesFlatReference drives the Index and the flat-delta
// reference through the same 200k seeded ops and requires, after every op,
// the same answer and the same Stats — the modelled shift price included.
func TestBlockedDeltaMatchesFlatReference(t *testing.T) {
	const nOps, nMain, nClusters = 200000, 20000, 12
	rng := stats.NewRNG(17)
	mainKeys := make([]uint64, nMain)
	for i := range mainKeys {
		mainKeys[i] = uint64(i+1) << 24
	}
	vals := make([]uint64, nMain)
	ix, ref := New(64), newFlatRMI(64)
	ix.BulkLoad(mainKeys, vals)
	ref.bulkLoad(mainKeys, vals)

	centers := make([]uint64, nClusters)
	for i := range centers {
		centers[i] = rng.Uint64() % (uint64(nMain) << 24)
	}
	freshKey := func() uint64 { return centers[rng.Intn(nClusters)] + uint64(rng.Intn(1<<16)) }
	heldKey := func() uint64 {
		if len(ref.dk) > 0 && rng.Intn(4) > 0 {
			return ref.dk[rng.Intn(len(ref.dk))]
		}
		return mainKeys[rng.Intn(nMain)]
	}

	draining, emptied, maxBlocks := false, 0, 0
	for op := 0; op < nOps; op++ {
		// Grow the delta for 14 000 ops (past the merge threshold while the
		// main array is small), then drain what is left until it is empty.
		if op%20000 == 14000 {
			draining = true
		}
		if draining && len(ref.dk) == 0 {
			draining = false
			emptied++
		}
		r := rng.Intn(100)
		if draining {
			r = r * 3 / 10 // 0..29: mostly deletes
		}
		switch {
		case op%45000 == 44999:
			if got, want := ix.Retrain(), ref.retrain(); got != want {
				t.Fatalf("op %d: Retrain() = %d, want %d", op, got, want)
			}
		case r < 20:
			k := heldKey()
			if got, want := ix.Delete(k), ref.delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
		case r < 28:
			k := heldKey()
			gv, gok := ix.Get(k)
			wv, wok := ref.get(k)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", op, k, gv, gok, wv, wok)
			}
		case r < 30:
			lo := freshKey()
			limit := 1 + rng.Intn(60)
			var got, want []uint64
			gn := ix.Scan(lo, lo+1<<22, func(k, v uint64) bool {
				got = append(got, k, v)
				return len(got) < 2*limit
			})
			wn := ref.scan(lo, lo+1<<22, func(k, v uint64) bool {
				want = append(want, k, v)
				return len(want) < 2*limit
			})
			if gn != wn || !slices.Equal(got, want) {
				t.Fatalf("op %d: Scan(%d) visited %d %v, want %d %v", op, lo, gn, got, wn, want)
			}
		case r < 40:
			k := heldKey() // overwrite, or reinsert through a tombstone
			ix.Insert(k, uint64(op))
			ref.insert(k, uint64(op))
		default:
			k := freshKey()
			ix.Insert(k, uint64(op))
			ref.insert(k, uint64(op))
		}
		if got, want := ix.Stats(), ref.stats(); got != want {
			t.Fatalf("op %d: Stats() = %+v, want %+v", op, got, want)
		}
		if ix.Len() != ref.len() || ix.DeltaLen() != len(ref.dk) {
			t.Fatalf("op %d: Len/DeltaLen = %d/%d, want %d/%d", op, ix.Len(), ix.DeltaLen(), ref.len(), len(ref.dk))
		}
		maxBlocks = max(maxBlocks, len(ix.delta.blocks))
		if op%1000 == 0 {
			if keys, dvals := checkDelta(t, &ix.delta); !slices.Equal(keys, ref.dk) || !slices.Equal(dvals, ref.dv) {
				t.Fatalf("op %d: delta contents differ from the reference", op)
			}
		}
	}
	st := ix.Stats()
	if st.Splits < 3 || emptied < 3 || maxBlocks < 8 {
		t.Fatalf("test did not reach its cases: %d auto-merges, %d drains to empty, at most %d blocks", st.Splits, emptied, maxBlocks)
	}
}

// seqDelta returns a delta holding keys 10, 20, …, 10n (value = key+1),
// inserted in order, so blocks split as they fill.
func seqDelta(n int) *delta {
	d := &delta{}
	for i := 1; i <= n; i++ {
		d.put(uint64(10*i), uint64(10*i+1))
	}
	return d
}

func TestDeltaSeams(t *testing.T) {
	t.Run("key below the first block", func(t *testing.T) {
		d := seqDelta(1000)
		if rank, added := d.put(5, 6); rank != 0 || !added {
			t.Fatalf("put = %d,%v", rank, added)
		}
		if keys, _ := checkDelta(t, d); keys[0] != 5 || len(keys) != 1001 {
			t.Fatalf("run starts %d, len %d", keys[0], len(keys))
		}
		if c := d.seek(0); !c.valid() || c.b != 0 || c.o != 0 {
			t.Fatalf("seek(0) = block %d offset %d", c.b, c.o)
		}
		if _, ok := d.get(4); ok {
			t.Fatal("get below the run found a key")
		}
	})
	t.Run("key equal to a block's first key", func(t *testing.T) {
		d := seqDelta(1000)
		k := d.first[1]
		if v, ok := d.get(k); !ok || v != k+1 {
			t.Fatalf("get = %d,%v", v, ok)
		}
		if _, added := d.put(k, 7); added {
			t.Fatal("overwrite reported as added")
		}
		if c := d.seek(k); c.b != 1 || c.o != 0 {
			t.Fatalf("seek = block %d offset %d", c.b, c.o)
		}
		if !d.remove(k) || d.first[1] != k+10 {
			t.Fatalf("after remove first[1] = %d, want %d", d.first[1], k+10)
		}
		checkDelta(t, d)
	})
	for _, tc := range []struct {
		name string
		key  uint64
	}{
		{"insert at a full block's midpoint", 10*deltaBlockCap/2 + 5},
		{"insert just above the midpoint", 10*deltaBlockCap/2 + 15},
		{"insert at a full block's end", 10*deltaBlockCap + 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := seqDelta(deltaBlockCap)
			if len(d.blocks) != 1 {
				t.Fatalf("%d blocks before the split", len(d.blocks))
			}
			rank, added := d.put(tc.key, 1)
			if want := int(tc.key / 10); rank != want || !added {
				t.Fatalf("put = %d,%v, want rank %d", rank, added, want)
			}
			keys, _ := checkDelta(t, d)
			if len(d.blocks) != 2 || keys[rank] != tc.key {
				t.Fatalf("%d blocks, run[%d] = %d", len(d.blocks), rank, keys[rank])
			}
		})
	}
	t.Run("remove emptying a block", func(t *testing.T) {
		d := seqDelta(3 * deltaBlockCap)
		nb, lo, hi := len(d.blocks), d.first[1], d.first[2]
		for k := lo; k < hi; k += 10 {
			if !d.remove(k) {
				t.Fatalf("remove(%d) missed", k)
			}
		}
		if len(d.blocks) != nb-1 || len(d.spare) != 1 || d.first[1] != hi {
			t.Fatalf("%d blocks (was %d), %d spare, first[1] = %d", len(d.blocks), nb, len(d.spare), d.first[1])
		}
		checkDelta(t, d)
		if d.remove(lo) {
			t.Fatal("removed a key twice")
		}
	})
	t.Run("overwrite of a delta key is not charged", func(t *testing.T) {
		ix := NewDefault() // empty main array: searchMain charges nothing
		for k := uint64(1); k <= 100; k++ {
			ix.Insert(k, k)
		}
		before := ix.Stats()
		ix.Insert(1, 9)
		if v, _ := ix.Get(1); v != 9 || ix.Stats().Compares != before.Compares || ix.DeltaLen() != 100 {
			t.Fatalf("value %d, compares %d → %d, delta %d", v, before.Compares, ix.Stats().Compares, ix.DeltaLen())
		}
		ix.Insert(0, 0) // rank 0 of 101: shifts 101 pairs
		if got := ix.Stats().Compares - before.Compares; got != 101/4 {
			t.Fatalf("front insert charged %d, want %d", got, 101/4)
		}
	})
	t.Run("delete then reinsert through a tombstone", func(t *testing.T) {
		ix := NewDefault()
		ix.BulkLoad([]uint64{10, 20, 30}, []uint64{1, 2, 3})
		if !ix.Delete(20) || ix.Delete(20) || ix.Len() != 2 {
			t.Fatalf("delete twice / Len %d", ix.Len())
		}
		if _, ok := ix.Get(20); ok {
			t.Fatal("tombstoned key still visible")
		}
		ix.Insert(20, 7)
		if v, ok := ix.Get(20); !ok || v != 7 || ix.Len() != 3 || ix.DeltaLen() != 0 {
			t.Fatalf("Get = %d,%v, Len %d, delta %d", v, ok, ix.Len(), ix.DeltaLen())
		}
	})
	t.Run("BulkLoad over a non-empty delta", func(t *testing.T) {
		ix := NewDefault()
		for k := uint64(1); k <= 2000; k++ {
			ix.Insert(k, k)
		}
		nb := len(ix.delta.blocks)
		ix.BulkLoad([]uint64{5000, 6000}, []uint64{1, 2})
		if _, ok := ix.Get(7); ok || ix.DeltaLen() != 0 || ix.Len() != 2 {
			t.Fatalf("old delta survived: found %v, delta %d, Len %d", ok, ix.DeltaLen(), ix.Len())
		}
		if len(ix.delta.spare) != nb {
			t.Fatalf("%d of %d blocks recycled", len(ix.delta.spare), nb)
		}
		if n := ix.Scan(0, ^uint64(0), func(_, _ uint64) bool { return true }); n != 2 {
			t.Fatalf("scan visited %d", n)
		}
	})
}

// TestDeltaPutAfterResetDoesNotAllocate pins the block recycling: a delta
// refilled to the size it had before reset reuses every array it owns, so
// steady-state retrains allocate nothing.
func TestDeltaPutAfterResetDoesNotAllocate(t *testing.T) {
	const n = 20000
	key := func(i int) uint64 { return stats.Mix64(uint64(i)) }
	d := &delta{}
	for i := 0; i < n; i++ {
		d.put(key(i), 0)
	}
	d.reset()
	i := 0
	if allocs := testing.AllocsPerRun(n-1, func() {
		d.put(key(i), 0)
		i++
	}); allocs != 0 {
		t.Fatalf("put after reset allocates %v times per call", allocs)
	}
	if d.n != n {
		t.Fatalf("refilled to %d of %d", d.n, n)
	}
}
