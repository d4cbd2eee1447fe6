package rmi

import (
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/sortbuf"
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
	st     index.Stats // what the delta side adds to main.St
}

func newFlatRMI(stage2 int) *flatRMI {
	return &flatRMI{main: New(stage2), tomb: map[uint64]struct{}{}}
}

func (f *flatRMI) stats() index.Stats {
	s := f.main.St
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

func (f *flatRMI) scan(lo uint64, limit int) int {
	if limit < 1 {
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
	for (i < len(mk) || j < len(f.dk)) && visited < limit {
		var k uint64
		if i >= len(mk) || (j < len(f.dk) && f.dk[j] <= mk[i]) {
			k = f.dk[j]
			if i < len(mk) && mk[i] == k {
				i++
			}
			j++
		} else {
			k = mk[i]
			i++
		}
		if _, dead := f.tomb[k]; !dead {
			visited++
		}
	}
	return visited
}

// deltaPairs returns the run the delta holds, walked with its cursor.
func deltaPairs(ix *Index) (keys, vals []uint64) {
	for c := ix.delta.Seek(0); c.Valid(); c.Next() {
		k, v, _ := c.Pair()
		keys, vals = append(keys, k), append(vals, v)
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

	draining, emptied, maxDelta := false, 0, 0
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
			if gn, wn := ix.Scan(lo, limit), ref.scan(lo, limit); gn != wn {
				t.Fatalf("op %d: Scan(%d, %d) visited %d, want %d", op, lo, limit, gn, wn)
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
		maxDelta = max(maxDelta, ix.DeltaLen())
		if op%1000 == 0 {
			if keys, dvals := deltaPairs(ix); !slices.Equal(keys, ref.dk) || !slices.Equal(dvals, ref.dv) {
				t.Fatalf("op %d: delta contents differ from the reference", op)
			}
		}
	}
	st := ix.Stats()
	if st.Splits < 3 || emptied < 3 || maxDelta < 8*sortbuf.BlockCap {
		t.Fatalf("test did not reach its cases: %d auto-merges, %d drains to empty, at most %d delta pairs", st.Splits, emptied, maxDelta)
	}
}

// TestDeltaSeams pins what the Index adds around its delta: the shift
// price, tombstones, and BulkLoad over a delta. The delta's own block seams
// are sortbuf's tests.
func TestDeltaSeams(t *testing.T) {
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
		ix.BulkLoad([]uint64{5000, 6000}, []uint64{1, 2})
		if _, ok := ix.Get(7); ok || ix.DeltaLen() != 0 || ix.Len() != 2 {
			t.Fatalf("old delta survived: found %v, delta %d, Len %d", ok, ix.DeltaLen(), ix.Len())
		}
		if n := ix.Scan(0, 3); n != 2 {
			t.Fatalf("scan visited %d", n)
		}
		// BulkLoad kept the old delta's blocks: refilling the delta to its
		// old size (over an empty main array, so no merge fires) allocates
		// nothing. AllocsPerRun runs the refill's first half as its warm-up
		// and counts the second half's allocations whole.
		ix.BulkLoad(nil, nil)
		k := uint64(0)
		if allocs := testing.AllocsPerRun(1, func() {
			for range 1000 {
				k++
				ix.Insert(k, k)
			}
		}); allocs != 0 || ix.DeltaLen() != 2000 {
			t.Fatalf("refilling the delta to %d allocated %v times", ix.DeltaLen(), allocs)
		}
	})
}
