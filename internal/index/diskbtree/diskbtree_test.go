package diskbtree

import (
	"testing"

	"repro/internal/index/indextest"
	"repro/internal/pager"
)

func newTree(t *testing.T, pages int) *Tree {
	t.Helper()
	f, err := pager.Create(pager.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	return New(pager.NewPool(f, pager.PoolKnobs{Pages: pages}))
}

// keyAt generates a deterministic pseudo-random key (splitmix64).
func keyAt(i uint64) uint64 {
	z := i*0x9E3779B97F4A7C15 + 0x123456789
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func TestInsertGetAcrossSplits(t *testing.T) {
	tr := newTree(t, 32)
	const n = 5000
	ref := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		k := keyAt(i)
		tr.Insert(k, i)
		ref[k] = i
	}
	if tr.Len() != len(ref) {
		t.Fatalf("len = %d, want %d", tr.Len(), len(ref))
	}
	if tr.Stats().Splits == 0 {
		t.Fatal("5000 inserts caused no page splits")
	}
	for k, v := range ref {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("get %d = (%d,%v), want %d", k, got, ok, v)
		}
	}
	if _, ok := tr.Get(12345); ok {
		t.Fatal("found a key never inserted")
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := newTree(t, 16)
	tr.Insert(42, 1)
	tr.Insert(42, 2)
	if v, ok := tr.Get(42); !ok || v != 2 {
		t.Fatalf("get = (%d,%v)", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 32)
	const n = 2000
	for i := uint64(0); i < n; i++ {
		tr.Insert(keyAt(i), i)
	}
	for i := uint64(0); i < n; i += 2 {
		if !tr.Delete(keyAt(i)) {
			t.Fatalf("delete %d reported absent", i)
		}
	}
	if tr.Delete(keyAt(0)) {
		t.Fatal("double delete reported present")
	}
	if tr.Len() != n/2 {
		t.Fatalf("len = %d, want %d", tr.Len(), n/2)
	}
	for i := uint64(0); i < n; i++ {
		_, ok := tr.Get(keyAt(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("get %d present=%v, want %v", i, ok, want)
		}
	}
}

func TestScanAcrossLeaves(t *testing.T) {
	tr := newTree(t, 32)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		tr.Insert(i*10, i)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 10
	}
	var probes []uint64
	for i := 0; i < n; i += 37 {
		probes = append(probes, keys[i])
	}
	probes = append(probes, keys[n-1], 1<<40)
	indextest.CheckScans(t, tr.Scan, keys, probes, []int{1, 6, 100, 255, 256, 257, n, n + 1})
}

// TestScanFetchesThePagesAWalkFetches: a scan whose limit lands on a leaf's
// last cell fetches no further page, and one more entry costs exactly one
// more page fetch.
func TestScanFetchesThePagesAWalkFetches(t *testing.T) {
	tr := newTree(t, 64)
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = uint64(i)*7 + 3
	}
	tr.BulkLoad(keys, keys)
	pg, id := tr.descend(keys[0], nil)
	cells := pg.NumCells()
	tr.pool.Unpin(id, false)
	fetches := func(limit int) uint64 {
		before := tr.pool.Counters()
		if got := tr.Scan(keys[0], limit); got != limit {
			t.Fatalf("Scan(%d, %d) visited %d", keys[0], limit, got)
		}
		after := tr.pool.Counters()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	one, full, over := fetches(1), fetches(cells), fetches(cells+1)
	if full != one || over != one+1 {
		t.Fatalf("page fetches for limits 1, %d, %d: %d, %d, %d; want n, n, n+1", cells, cells+1, one, full, over)
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	const n = 10000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*7 + 3
		vals[i] = uint64(i)
	}
	tr := newTree(t, 64)
	tr.BulkLoad(keys, vals)
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	for i, k := range keys {
		if v, ok := tr.Get(k); !ok || v != vals[i] {
			t.Fatalf("get %d = (%d,%v)", k, v, ok)
		}
	}
	if _, ok := tr.Get(keys[0] + 1); ok {
		t.Fatal("found absent key after bulk load")
	}
	indextest.CheckScans(t, tr.Scan, keys, []uint64{0, keys[0], keys[n/2], keys[n-1]}, []int{1, n / 2, n, n + 1})
	// Bulk load replaces a previous tree and frees its pages.
	tr.BulkLoad(keys[:100], vals[:100])
	if tr.Len() != 100 {
		t.Fatalf("len after reload = %d", tr.Len())
	}
	if err := tr.Pool().CheckConsistency(tr.Reachable()); err != nil {
		t.Fatal(err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	b := pager.NewMemBackend()
	f, err := pager.Create(b)
	if err != nil {
		t.Fatal(err)
	}
	pool := pager.NewPool(f, pager.PoolKnobs{Pages: 32})
	tr := New(pool)
	const n = 4000
	for i := uint64(0); i < n; i++ {
		tr.Insert(keyAt(i), i)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f2, err := pager.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := pager.NewPool(f2, pager.PoolKnobs{Pages: 32})
	tr2 := New(pool2)
	if tr2.Len() != tr.Len() {
		t.Fatalf("reopened len = %d, want %d", tr2.Len(), tr.Len())
	}
	pool2.RebuildFreeList(tr2.Reachable())
	if err := pool2.CheckConsistency(tr2.Reachable()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tr2.Get(keyAt(i)); !ok || v != i {
			t.Fatalf("reopened get %d = (%d,%v)", i, v, ok)
		}
	}
}

func TestTinyPoolStillCorrect(t *testing.T) {
	// A pool far smaller than the tree forces eviction on nearly every
	// access; correctness must not depend on residency.
	tr := newTree(t, 8)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		tr.Insert(keyAt(i), i)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tr.Get(keyAt(i)); !ok || v != i {
			t.Fatalf("get %d = (%d,%v)", i, v, ok)
		}
	}
	c := tr.Pool().Counters()
	if c.PagesRead == 0 || c.PagesWritten == 0 {
		t.Fatalf("tiny pool produced no backend I/O: %+v", c)
	}
}

func TestStatsCounters(t *testing.T) {
	tr := newTree(t, 64)
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i, i)
	}
	before := tr.Stats()
	tr.Get(500)
	after := tr.Stats()
	if after.Searches != before.Searches+1 {
		t.Fatalf("searches %d -> %d", before.Searches, after.Searches)
	}
	if after.Compares <= before.Compares {
		t.Fatal("get charged no compares")
	}
}
