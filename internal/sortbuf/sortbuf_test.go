package sortbuf

import (
	"slices"
	"testing"

	"repro/internal/stats"
)

// check verifies the layout's invariants and returns the run it holds.
func check(t *testing.T, d *Buffer[uint64]) (keys, vals []uint64) {
	t.Helper()
	if len(d.first) != len(d.blocks) || len(d.cnt) != len(d.blocks) {
		t.Fatalf("directory lengths %d/%d/%d", len(d.first), len(d.cnt), len(d.blocks))
	}
	for b, blk := range d.blocks {
		if d.cnt[b] < 1 || d.cnt[b] > BlockCap {
			t.Fatalf("block %d holds %d pairs", b, d.cnt[b])
		}
		if d.first[b] != blk.keys[0] {
			t.Fatalf("first[%d] = %d, block starts at %d", b, d.first[b], blk.keys[0])
		}
		keys = append(keys, blk.keys[:d.cnt[b]]...)
		vals = append(vals, blk.vals[:d.cnt[b]]...)
	}
	if len(keys) != d.Len() {
		t.Fatalf("Len = %d, blocks hold %d", d.Len(), len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("run not strictly sorted at %d: %d, %d", i, keys[i-1], keys[i])
		}
	}
	i := 0
	for c := d.Seek(0); c.Valid(); c.Next() {
		if k, v, _ := c.Pair(); i >= len(keys) || k != keys[i] || v != vals[i] {
			t.Fatalf("cursor pair %d = %d→%d", i, k, v)
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("cursor yielded %d of %d pairs", i, len(keys))
	}
	return keys, vals
}

// seqBuffer returns a buffer holding keys 10, 20, …, 10n (value = key+1),
// inserted in order, so blocks split as they fill.
func seqBuffer(n int) *Buffer[uint64] {
	d := &Buffer[uint64]{}
	for i := 1; i <= n; i++ {
		d.Put(uint64(10*i), uint64(10*i+1))
	}
	return d
}

func TestSeams(t *testing.T) {
	t.Run("key below the first block", func(t *testing.T) {
		d := seqBuffer(1000)
		if rank, added := d.Put(5, 6); rank != 0 || !added {
			t.Fatalf("Put = %d,%v", rank, added)
		}
		if keys, _ := check(t, d); keys[0] != 5 || len(keys) != 1001 {
			t.Fatalf("run starts %d, len %d", keys[0], len(keys))
		}
		if c := d.Seek(0); !c.Valid() || c.b != 0 || c.o != 0 {
			t.Fatalf("Seek(0) = block %d offset %d", c.b, c.o)
		}
		if _, ok := d.Get(4); ok {
			t.Fatal("Get below the run found a key")
		}
	})
	t.Run("key equal to a block's first key", func(t *testing.T) {
		d := seqBuffer(1000)
		k := d.first[1]
		if v, ok := d.Get(k); !ok || v != k+1 {
			t.Fatalf("Get = %d,%v", v, ok)
		}
		if _, added := d.Put(k, 7); added {
			t.Fatal("overwrite reported as added")
		}
		if c := d.Seek(k); c.b != 1 || c.o != 0 {
			t.Fatalf("Seek = block %d offset %d", c.b, c.o)
		}
		if !d.Remove(k) || d.first[1] != k+10 {
			t.Fatalf("after Remove first[1] = %d, want %d", d.first[1], k+10)
		}
		check(t, d)
	})
	for _, tc := range []struct {
		name string
		key  uint64
	}{
		{"insert at a full block's midpoint", 10*BlockCap/2 + 5},
		{"insert just above the midpoint", 10*BlockCap/2 + 15},
		{"insert at a full block's end", 10*BlockCap + 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := seqBuffer(BlockCap)
			if len(d.blocks) != 1 {
				t.Fatalf("%d blocks before the split", len(d.blocks))
			}
			rank, added := d.Put(tc.key, 1)
			if want := int(tc.key / 10); rank != want || !added {
				t.Fatalf("Put = %d,%v, want rank %d", rank, added, want)
			}
			keys, _ := check(t, d)
			if len(d.blocks) != 2 || keys[rank] != tc.key {
				t.Fatalf("%d blocks, run[%d] = %d", len(d.blocks), rank, keys[rank])
			}
		})
	}
	t.Run("remove emptying a block", func(t *testing.T) {
		d := seqBuffer(3 * BlockCap)
		nb, lo, hi := len(d.blocks), d.first[1], d.first[2]
		for k := lo; k < hi; k += 10 {
			if !d.Remove(k) {
				t.Fatalf("Remove(%d) missed", k)
			}
		}
		if len(d.blocks) != nb-1 || len(d.spare) != 1 || d.first[1] != hi {
			t.Fatalf("%d blocks (was %d), %d spare, first[1] = %d", len(d.blocks), nb, len(d.spare), d.first[1])
		}
		check(t, d)
		if d.Remove(lo) {
			t.Fatal("removed a key twice")
		}
	})
}

// TestMatchesFlatReference drives a buffer and a flat sorted array through
// one seeded stream of puts, overwrites, removes, gets, seeks and resets,
// and requires the same answer after every op — Put's rank included — and,
// every 500 ops, the block layout's invariants and the same run. The stream
// grows the buffer past many blocks, then drains it to empty, so blocks
// split, empty, retire to spare and come back.
func TestMatchesFlatReference(t *testing.T) {
	const nOps, nClusters = 200000, 12
	rng := stats.NewRNG(29)
	d := &Buffer[uint64]{}
	var keys, vals []uint64
	centers := make([]uint64, nClusters)
	for i := range centers {
		centers[i] = rng.Uint64() >> 1
	}
	freshKey := func() uint64 { return centers[rng.Intn(nClusters)] + uint64(rng.Intn(1<<14)) }
	heldKey := func() uint64 {
		if len(keys) > 0 && rng.Intn(4) > 0 {
			return keys[rng.Intn(len(keys))]
		}
		return freshKey()
	}

	draining, drained, resets, retired, maxBlocks := false, 0, 0, 0, 0
	for op := 0; op < nOps; op++ {
		// Grow for 12 000 ops, then remove until the buffer is empty.
		if op%25000 == 12000 {
			draining = true
		}
		if draining && len(keys) == 0 {
			draining = false
			drained++
		}
		r := rng.Intn(100)
		if draining {
			r = 55 + r/4 // 55..79: removes, gets and seeks
		}
		nb := len(d.blocks)
		switch {
		case op%45000 == 44999:
			d.Reset()
			keys, vals = keys[:0], vals[:0]
			resets++
		case r < 55:
			k := freshKey()
			if r >= 45 {
				k = heldKey() // overwrite
			}
			j, held := slices.BinarySearch(keys, k)
			rank, added := d.Put(k, uint64(op))
			if added == held || (added && rank != j) {
				t.Fatalf("op %d: Put(%d) = %d,%v, want %d,%v", op, k, rank, added, j, !held)
			}
			if held {
				vals[j] = uint64(op)
			} else {
				keys, vals = slices.Insert(keys, j, k), slices.Insert(vals, j, uint64(op))
			}
		case r < 70:
			k := heldKey()
			j, held := slices.BinarySearch(keys, k)
			if got := d.Remove(k); got != held {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", op, k, got, held)
			}
			if held {
				keys, vals = slices.Delete(keys, j, j+1), slices.Delete(vals, j, j+1)
			}
			if len(d.blocks) < nb {
				retired++
			}
		case r < 75:
			k := heldKey()
			j, held := slices.BinarySearch(keys, k)
			if v, ok := d.Get(k); ok != held || (held && v != vals[j]) {
				t.Fatalf("op %d: Get(%d) = %d,%v, want held %v", op, k, v, ok, held)
			}
		default:
			k := heldKey()
			j, _ := slices.BinarySearch(keys, k)
			c := d.Seek(k)
			gk, gv, ok := c.Pair()
			if ok != (j < len(keys)) || (ok && (gk != keys[j] || gv != vals[j])) {
				t.Fatalf("op %d: Seek(%d) on %d→%d,%v, want rank %d of %d", op, k, gk, gv, ok, j, len(keys))
			}
		}
		if d.Len() != len(keys) {
			t.Fatalf("op %d: Len = %d, want %d", op, d.Len(), len(keys))
		}
		maxBlocks = max(maxBlocks, len(d.blocks))
		if op%500 == 0 {
			if gk, gv := check(t, d); !slices.Equal(gk, keys) || !slices.Equal(gv, vals) {
				t.Fatalf("op %d: run differs from the reference", op)
			}
		}
	}
	if drained < 3 || resets < 3 || retired < 10 || maxBlocks < 8 {
		t.Fatalf("test did not reach its cases: %d drains to empty, %d resets, %d blocks emptied by Remove, at most %d blocks",
			drained, resets, retired, maxBlocks)
	}
}

// TestPutAfterResetDoesNotAllocate pins the block recycling: a buffer
// refilled to the size it had before Reset reuses every array it owns, so
// the RMI's steady-state retrains and the memtable's flushes allocate
// nothing for it.
func TestPutAfterResetDoesNotAllocate(t *testing.T) {
	const n = 20000
	key := func(i int) uint64 { return stats.Mix64(uint64(i)) }
	d := &Buffer[uint64]{}
	for i := 0; i < n; i++ {
		d.Put(key(i), 0)
	}
	d.Reset()
	// AllocsPerRun runs the refill's first half as its warm-up and counts
	// the second half's allocations whole (a per-Put average would round a
	// few dozen fresh blocks down to 0).
	i := 0
	if allocs := testing.AllocsPerRun(1, func() {
		for range n / 2 {
			d.Put(key(i), 0)
			i++
		}
	}); allocs != 0 {
		t.Fatalf("refilling after Reset allocated %v times", allocs)
	}
	if d.Len() != n {
		t.Fatalf("refilled to %d of %d", d.Len(), n)
	}
}
