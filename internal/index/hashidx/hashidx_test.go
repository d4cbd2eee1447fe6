package hashidx

import (
	"testing"

	"repro/internal/index"
	"repro/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, func() index.Ordered { return New() })
}

func TestDirectoryGrowth(t *testing.T) {
	ix := New()
	for k := uint64(0); k < 100000; k++ {
		ix.Insert(k, k)
	}
	if ix.Len() != 100000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.globalDepth == 0 {
		t.Fatal("directory never grew")
	}
	for _, k := range []uint64{0, 50000, 99999} {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) failed after growth", k)
		}
	}
	if ix.Stats().Splits == 0 {
		t.Fatal("no splits recorded")
	}
}

func TestBucketInvariant(t *testing.T) {
	// Every key in every bucket must hash back to a directory slot
	// pointing at that bucket.
	ix := New()
	for k := uint64(0); k < 20000; k += 3 {
		ix.Insert(k, k)
	}
	for slot, b := range ix.dirs {
		for _, k := range b.keys {
			if ix.dirs[ix.dirIndex(k)] != b {
				t.Fatalf("key %d in bucket at slot %d but routes elsewhere", k, slot)
			}
		}
	}
}

func TestDeleteShrinksLen(t *testing.T) {
	ix := New()
	for k := uint64(0); k < 1000; k++ {
		ix.Insert(k, k)
	}
	for k := uint64(0); k < 1000; k += 2 {
		if !ix.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if ix.Len() != 500 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestScanSortsResults(t *testing.T) {
	ix := New()
	for _, k := range []uint64{50, 10, 90, 30, 70} {
		ix.Insert(k, k)
	}
	indextest.CheckScans(t, ix.Scan, []uint64{10, 30, 50, 70, 90}, []uint64{0, 10, 50, 90, 100}, []int{1, 2, 3, 5, 6})
	// Whatever the limit, a scan tests every entry and prices a sort of
	// every hit: 5 tests, and at least 4 comparisons to order 5 keys.
	before := ix.Stats()
	if n := ix.Scan(0, 1); n != 1 {
		t.Fatalf("Scan(0, 1) visited %d", n)
	}
	after := ix.Stats()
	if got := after.Compares + after.Modelled - before.Compares - before.Modelled; got < 5+4 {
		t.Fatalf("Scan(0, 1) charged %d compares and modelled units, want >= 9", got)
	}
}

// TestScanPricesTestsAndSort: a scan's Compares are the entries it tests,
// once per bucket however many directory slots point at it, and Modelled is
// h·⌈log₂ h⌉ for its h hits; it allocates nothing.
func TestScanPricesTestsAndSort(t *testing.T) {
	ix := New()
	for k := uint64(0); k < 5000; k++ {
		ix.Insert(k*7, k)
	}
	if ix.globalDepth < 2 {
		t.Fatalf("directory depth %d: no bucket spans several slots", ix.globalDepth)
	}
	for _, c := range []struct {
		lo        uint64
		hits, log int
	}{{0, 5000, 13}, {7 * 4999, 1, 0}, {7 * 4998, 2, 1}, {7 * 4000, 1000, 10}, {7 * 5000, 0, 0}} {
		before := ix.Stats()
		if n := ix.Scan(c.lo, 200); n != min(c.hits, 200) {
			t.Fatalf("Scan(%d, 200) visited %d, want %d", c.lo, n, min(c.hits, 200))
		}
		st := ix.Stats()
		if got := st.Compares - before.Compares; got != 5000 {
			t.Fatalf("Scan(%d) tested %d entries, want 5000", c.lo, got)
		}
		if got := st.Modelled - before.Modelled; got != uint64(c.hits*c.log) {
			t.Fatalf("Scan(%d) modelled %d, want %d·%d", c.lo, got, c.hits, c.log)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { ix.Scan(7*100, 200) }); allocs != 0 {
		t.Fatalf("a scan allocated %v times", allocs)
	}
}

func TestBulkLoadReplaces(t *testing.T) {
	ix := New()
	ix.Insert(999, 1)
	ix.BulkLoad([]uint64{1, 2, 3}, []uint64{10, 20, 30})
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if _, ok := ix.Get(999); ok {
		t.Fatal("BulkLoad did not replace contents")
	}
}
