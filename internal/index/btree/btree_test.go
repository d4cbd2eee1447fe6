package btree

import (
	"testing"

	"repro/internal/distgen"
	"repro/internal/index"
	"repro/internal/index/indextest"
	"repro/internal/search"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, func() index.Ordered { return NewDefault() })
}

func TestSmallOrderConformance(t *testing.T) {
	// Order 4 forces deep trees and frequent splits.
	indextest.Run(t, func() index.Ordered { return New(4) })
}

// TestBitsIsTheShiftLoop pins the comparison price of a node visit to the
// loop it was first written as, over every node size a tree can hold.
func TestBitsIsTheShiftLoop(t *testing.T) {
	for n := 0; n <= DefaultOrder+1; n++ {
		want := 1
		for m := n; m > 1; m >>= 1 {
			want++
		}
		if got := bits(n); got != want {
			t.Errorf("bits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOrderClamped(t *testing.T) {
	tr := New(1)
	for k := uint64(0); k < 100; k++ {
		tr.Insert(k, k)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	keys := distgen.UniqueKeys(distgen.NewZipfKeys(7, 1.1, 100000), 20000)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	bulk := NewDefault()
	bulk.BulkLoad(keys, vals)
	incr := NewDefault()
	for i, k := range keys {
		incr.Insert(k, vals[i])
	}
	if bulk.Len() != incr.Len() {
		t.Fatalf("len mismatch: %d vs %d", bulk.Len(), incr.Len())
	}
	for i, k := range keys {
		bv, bok := bulk.Get(k)
		iv, iok := incr.Get(k)
		if !bok || !iok || bv != iv || bv != vals[i] {
			t.Fatalf("mismatch at key %d", k)
		}
	}
	// Scans agree with the model, whichever way the tree was built.
	var probes []uint64
	for i := 0; i < len(keys); i += 97 {
		probes = append(probes, keys[i])
	}
	limits := []int{1, 64, 200, 9901, len(keys)}
	indextest.CheckScans(t, bulk.Scan, keys, probes, limits)
	indextest.CheckScans(t, incr.Scan, keys, probes, limits)
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := NewDefault()
	tr.Insert(1, 1)
	tr.BulkLoad(nil, nil)
	if tr.Len() != 0 {
		t.Fatal("BulkLoad(nil) did not clear")
	}
	tr.Insert(5, 5)
	if v, ok := tr.Get(5); !ok || v != 5 {
		t.Fatal("tree unusable after empty BulkLoad")
	}
}

func TestBulkLoadPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDefault().BulkLoad([]uint64{1, 2}, []uint64{1})
}

func TestStatsProgress(t *testing.T) {
	tr := New(4)
	for k := uint64(0); k < 1000; k++ {
		tr.Insert(k, k)
	}
	for k := uint64(0); k < 1000; k++ {
		tr.Get(k)
	}
	st := tr.Stats()
	if st.Searches != 1000 {
		t.Fatalf("searches = %d", st.Searches)
	}
	if st.Splits == 0 {
		t.Fatal("no splits recorded for order-4 tree with 1000 keys")
	}
	if st.Compares == 0 {
		t.Fatal("no compares recorded")
	}
}

func TestDeleteDoesNotBreakScans(t *testing.T) {
	tr := New(4)
	for k := uint64(0); k < 2000; k++ {
		tr.Insert(k, k)
	}
	// Delete a whole leaf's worth in the middle.
	for k := uint64(500); k < 600; k++ {
		tr.Delete(k)
	}
	var live []uint64
	for k := uint64(0); k < 2000; k++ {
		if k < 500 || k >= 600 {
			live = append(live, k)
		}
	}
	probes := []uint64{0, 450, 499, 500, 550, 599, 600, 1999}
	indextest.CheckScans(t, tr.Scan, live, probes, []int{1, 50, 51, 52, 150, 201, 2000})
}

// TestScanChargesEveryLeafItEnters: a scan charges the inner descent to lo,
// then one binary search per leaf it enters — bits(len(keys)) each, the lo=0
// leaves after the first and emptied leaves included — and enters no leaf
// past the one where the limit lands.
func TestScanChargesEveryLeafItEnters(t *testing.T) {
	tr := New(4)
	for k := uint64(0); k < 2000; k++ {
		tr.Insert(k, k)
	}
	for k := uint64(500); k < 600; k++ {
		tr.Delete(k)
	}
	for _, tc := range []struct {
		lo    uint64
		limit int
	}{{0, 1}, {450, 50}, {450, 51}, {490, 30}, {1990, 100}, {3000, 5}} {
		// The walk: descend to lo's leaf, search it for lo, then take
		// whole leaves until the limit is reached.
		var want uint64
		n := tr.root
		for {
			in, ok := n.(*inner)
			if !ok {
				break
			}
			want += uint64(bits(len(in.keys)))
			n = in.children[search.UpperBound(in.keys, tc.lo)]
		}
		l := n.(*leaf)
		left := tc.limit
		for i := search.LowerBound(l.keys, tc.lo); ; i = 0 {
			want += uint64(bits(len(l.keys)))
			if left -= len(l.keys) - i; left <= 0 || l.next == nil {
				break
			}
			l = l.next
		}
		before := tr.St.Compares
		tr.Scan(tc.lo, tc.limit)
		if got := tr.St.Compares - before; got != want {
			t.Errorf("Scan(%d, %d) charged %d compares, want %d", tc.lo, tc.limit, got, want)
		}
	}
}
