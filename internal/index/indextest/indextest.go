// Package indextest provides a conformance suite run against every
// index.Ordered implementation, checking each against a reference model
// (Go map + sorted slice) under randomized operation sequences. Keeping the
// suite in one place guarantees the traditional and learned indexes are
// held to identical semantics before the benchmark compares their
// performance.
package indextest

import (
	"math"
	"sort"
	"testing"

	"repro/internal/distgen"
	"repro/internal/index"
	"repro/internal/stats"
)

// Factory builds a fresh empty index under test.
type Factory func() index.Ordered

// Run executes the full conformance suite.
func Run(t *testing.T, newIndex Factory) {
	t.Helper()
	t.Run("EmptyBehaviour", func(t *testing.T) { testEmpty(t, newIndex()) })
	t.Run("InsertGet", func(t *testing.T) { testInsertGet(t, newIndex()) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, newIndex()) })
	t.Run("Delete", func(t *testing.T) { testDelete(t, newIndex()) })
	t.Run("ScanOrder", func(t *testing.T) { testScanOrder(t, newIndex()) })
	t.Run("ScanEarlyStop", func(t *testing.T) { testScanEarlyStop(t, newIndex()) })
	t.Run("ScanEmptyRange", func(t *testing.T) { testScanEmptyRange(t, newIndex()) })
	t.Run("BulkLoad", func(t *testing.T) { testBulkLoad(t, newIndex()) })
	t.Run("RandomOpsVsModel", func(t *testing.T) { testRandomOps(t, newIndex, 1) })
	t.Run("RandomOpsVsModelSkewed", func(t *testing.T) { testRandomOps(t, newIndex, 2) })
	t.Run("SequentialInsertHeavy", func(t *testing.T) { testSequentialHeavy(t, newIndex()) })
	t.Run("ExtremeKeys", func(t *testing.T) { testExtremeKeys(t, newIndex()) })
}

func testEmpty(t *testing.T, ix index.Ordered) {
	if ix.Len() != 0 {
		t.Fatalf("empty Len = %d", ix.Len())
	}
	if _, ok := ix.Get(42); ok {
		t.Fatal("Get on empty index")
	}
	if ix.Delete(42) {
		t.Fatal("Delete on empty index")
	}
	if n := ix.Scan(0, math.MaxInt); n != 0 {
		t.Fatalf("Scan on empty visited %d", n)
	}
	if ix.Name() == "" {
		t.Fatal("empty Name")
	}
}

func testInsertGet(t *testing.T, ix index.Ordered) {
	keys := distgen.UniqueKeys(distgen.NewUniform(1, 0, distgen.KeyDomain), 2000)
	for i, k := range keys {
		ix.Insert(k, uint64(i))
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok := ix.Get(k)
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v want %d", k, v, ok, i)
		}
	}
	// Absent keys between present ones.
	for _, k := range keys[:100] {
		if _, ok := ix.Get(k + 1); ok {
			found := false
			for _, k2 := range keys {
				if k2 == k+1 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("Get(%d) found absent key", k+1)
			}
		}
	}
}

func testOverwrite(t *testing.T, ix index.Ordered) {
	ix.Insert(10, 1)
	ix.Insert(10, 2)
	if ix.Len() != 1 {
		t.Fatalf("overwrite changed Len to %d", ix.Len())
	}
	if v, _ := ix.Get(10); v != 2 {
		t.Fatalf("overwrite lost: %d", v)
	}
}

func testDelete(t *testing.T, ix index.Ordered) {
	for k := uint64(0); k < 100; k++ {
		ix.Insert(k*10, k)
	}
	if !ix.Delete(500) {
		t.Fatal("Delete existing returned false")
	}
	if ix.Delete(500) {
		t.Fatal("double Delete returned true")
	}
	if _, ok := ix.Get(500); ok {
		t.Fatal("deleted key still found")
	}
	if ix.Len() != 99 {
		t.Fatalf("Len after delete = %d", ix.Len())
	}
	// Reinsert after delete.
	ix.Insert(500, 777)
	if v, ok := ix.Get(500); !ok || v != 777 {
		t.Fatal("reinsert after delete failed")
	}
}

// ScanCount is the scan a sorted model answers: how many of the ascending
// keys are >= lo, capped at limit (0 when limit < 1).
func ScanCount(sorted []uint64, lo uint64, limit int) int {
	if limit < 1 {
		return 0
	}
	return min(len(sorted)-sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo }), limit)
}

// CheckScans fails t unless scan agrees with ScanCount over sorted — the
// live keys — at every probe key, the keys on either side of it, and every
// limit. scan is an index.Ordered's Scan, or anything that scans like one.
func CheckScans(t testing.TB, scan func(lo uint64, limit int) int, sorted, probes []uint64, limits []int) {
	t.Helper()
	for _, p := range probes {
		for _, lo := range []uint64{p - 1, p, p + 1} {
			for _, limit := range limits {
				if got, want := scan(lo, limit), ScanCount(sorted, lo, limit); got != want {
					t.Fatalf("Scan(%d, %d) visited %d, want %d", lo, limit, got, want)
				}
			}
		}
	}
}

func testScanOrder(t *testing.T, ix index.Ordered) {
	keys := distgen.UniqueKeys(distgen.NewClustered(3, 5, 1e9), 3000)
	for _, k := range keys {
		ix.Insert(k, k*2)
	}
	// Every 31st key and the last: a hash index sorts the table per scan.
	probes := []uint64{keys[len(keys)-1]}
	for i := 0; i < len(keys); i += 31 {
		probes = append(probes, keys[i])
	}
	CheckScans(t, ix.Scan, keys, probes, []int{1, 2, 63, 64, 65, 200, 2501, len(keys)})
}

func testScanEarlyStop(t *testing.T, ix index.Ordered) {
	for k := uint64(1); k <= 100; k++ {
		ix.Insert(k, k)
	}
	if visited := ix.Scan(1, 10); visited != 10 {
		t.Fatalf("early stop visited %d, want 10", visited)
	}
	if visited := ix.Scan(95, 10); visited != 6 {
		t.Fatalf("scan near the end visited %d, want 6", visited)
	}
}

func testScanEmptyRange(t *testing.T, ix index.Ordered) {
	ix.Insert(100, 1)
	if n := ix.Scan(101, 99999); n != 0 {
		t.Fatalf("scan past the last key visited %d", n)
	}
	for _, limit := range []int{0, -1, math.MinInt} {
		if n := ix.Scan(0, limit); n != 0 {
			t.Fatalf("scan with limit %d visited %d", limit, n)
		}
	}
}

func testBulkLoad(t *testing.T, ix index.Ordered) {
	bl, ok := ix.(index.BulkLoader)
	if !ok {
		t.Skip("index does not implement BulkLoader")
	}
	keys := distgen.UniqueKeys(distgen.NewSegmented(4, 8), 5000)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) + 1
	}
	bl.BulkLoad(keys, vals)
	if ix.Len() != len(keys) {
		t.Fatalf("Len after BulkLoad = %d", ix.Len())
	}
	for i, k := range keys {
		if v, ok := ix.Get(k); !ok || v != vals[i] {
			t.Fatalf("Get(%d) after BulkLoad = %d,%v", k, v, ok)
		}
	}
	// Mutations after bulk load must work.
	ix.Insert(keys[0]+1, 424242)
	if v, ok := ix.Get(keys[0] + 1); !ok || v != 424242 {
		t.Fatal("insert after BulkLoad failed")
	}
}

// testRandomOps drives the index with a random mixed workload and checks
// every result against a map-based reference model.
func testRandomOps(t *testing.T, newIndex Factory, seed uint64) {
	ix := newIndex()
	in := ix.(index.Instrumented) // every index under test counts its work
	live := in.LiveStats()
	rng := stats.NewRNG(seed)
	ref := make(map[uint64]uint64)
	var keyPool []uint64

	const ops = 20000
	for op := 0; op < ops; op++ {
		r := rng.Float64()
		switch {
		case r < 0.5: // insert
			var k uint64
			if seed == 2 && len(keyPool) > 0 && rng.Float64() < 0.3 {
				// Skewed: revisit existing keys for overwrites.
				k = keyPool[rng.Intn(len(keyPool))]
			} else {
				k = rng.Uint64() % (1 << 40)
			}
			v := rng.Uint64()
			if _, exists := ref[k]; !exists {
				keyPool = append(keyPool, k)
			}
			ref[k] = v
			ix.Insert(k, v)
		case r < 0.75: // get
			var k uint64
			if len(keyPool) > 0 && rng.Float64() < 0.7 {
				k = keyPool[rng.Intn(len(keyPool))]
			} else {
				k = rng.Uint64() % (1 << 40)
			}
			wantV, wantOK := ref[k]
			gotV, gotOK := ix.Get(k)
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)",
					op, k, gotV, gotOK, wantV, wantOK)
			}
		case r < 0.85: // delete
			if len(keyPool) == 0 {
				continue
			}
			k := keyPool[rng.Intn(len(keyPool))]
			_, wantOK := ref[k]
			gotOK := ix.Delete(k)
			if gotOK != wantOK {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, gotOK, wantOK)
			}
			delete(ref, k)
		default: // scan
			if len(keyPool) < 2 {
				continue
			}
			lo := keyPool[rng.Intn(len(keyPool))] + uint64(rng.Intn(3)) - 1
			limit := 1 + rng.Intn(300)
			if rng.Float64() < 0.1 {
				limit = len(ref) + 1
			}
			want := 0
			for k := range ref {
				if k >= lo {
					want++
				}
			}
			want = min(want, limit)
			if got := ix.Scan(lo, limit); got != want {
				t.Fatalf("op %d: Scan(%d, %d) visited %d, want %d", op, lo, limit, got, want)
			}
		}
		if ix.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, model has %d", op, ix.Len(), len(ref))
		}
	}
	// A per-op reader keeps the pointer taken before the stream.
	if in.LiveStats() != live || *live != in.Stats() || live.Searches == 0 {
		t.Fatalf("LiveStats %+v is not Stats %+v", *live, in.Stats())
	}
}

func testSequentialHeavy(t *testing.T, ix index.Ordered) {
	// Append-mostly pattern (auto-increment IDs) — stresses learned
	// indexes' right-edge behaviour and tree splits.
	for k := uint64(1); k <= 30000; k++ {
		ix.Insert(k, k)
	}
	if ix.Len() != 30000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for _, k := range []uint64{1, 15000, 30000} {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) failed after sequential load", k)
		}
	}
	if n := ix.Scan(10000, 100); n != 100 {
		t.Fatalf("scan visited %d, want 100", n)
	}
	if n := ix.Scan(29950, 100); n != 51 {
		t.Fatalf("scan to the end visited %d, want 51", n)
	}
}

func testExtremeKeys(t *testing.T, ix index.Ordered) {
	keys := []uint64{0, 1, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)} // ascending
	for i, k := range keys {
		ix.Insert(k, uint64(i))
	}
	for i, k := range keys {
		if v, ok := ix.Get(k); !ok || v != uint64(i) {
			t.Fatalf("extreme key %d lost", k)
		}
	}
	CheckScans(t, ix.Scan, keys, keys, []int{1, 2, 3, len(keys), math.MaxInt})
}
