package pager

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// filledPool returns a pool of the given capacity over a checkpointed
// in-memory file of n run pages, page i holding the single cell i.
func filledPool(t *testing.T, knobs PoolKnobs, n int) (*Pool, *MemBackend, []PageID) {
	t.Helper()
	b := NewMemBackend()
	f, err := Create(b)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(f, knobs)
	ids := make([]PageID, n)
	for i := range ids {
		pg, id, err := pool.Alloc(TypeRun)
		if err != nil {
			t.Fatal(err)
		}
		var cell [8]byte
		binary.LittleEndian.PutUint64(cell[:], uint64(i))
		pg.Insert(0, cell[:])
		pool.Unpin(id, true)
		ids[i] = id
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return pool, b, ids
}

// checkFrames asserts the recycling bound: resident plus spare frames never
// exceed the pool's capacity.
func checkFrames(t *testing.T, pool *Pool) {
	t.Helper()
	if n := len(pool.frames) + len(pool.spare); n > pool.knobs.Pages {
		t.Fatalf("%d frames exist (%d resident + %d spare) in a pool of %d",
			n, len(pool.frames), len(pool.spare), pool.knobs.Pages)
	}
}

func TestAllocFailureTakesNoPageID(t *testing.T) {
	for _, reusable := range []bool{false, true} {
		pool, _, ids := filledPool(t, PoolKnobs{Pages: 8}, 10)
		live := ids
		if reusable {
			// Two checkpointed frees: the next Alloc would pop freeNow.
			for _, id := range ids[8:] {
				if err := pool.Free(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := pool.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			live = ids[:8]
		}
		for _, id := range ids[:8] {
			if _, err := pool.Get(id); err != nil {
				t.Fatal(err)
			}
		}
		count, free := pool.File().PageCount(), pool.FreePages()
		if _, _, err := pool.Alloc(TypeRun); err == nil {
			t.Fatal("alloc succeeded with every frame pinned")
		}
		for _, id := range ids[:8] {
			pool.Unpin(id, false)
		}
		if got := pool.File().PageCount(); got != count {
			t.Errorf("reusable=%v: page count %d after failed alloc, was %d", reusable, got, count)
		}
		if got := pool.FreePages(); len(got) != len(free) {
			t.Errorf("reusable=%v: free pages %v after failed alloc, were %v", reusable, got, free)
		}
		if err := pool.CheckConsistency(live); err != nil {
			t.Errorf("reusable=%v: %v", reusable, err)
		}
	}
}

func TestPoolMissAllocatesNothingOnceWarm(t *testing.T) {
	pool, _, ids := filledPool(t, PoolKnobs{Pages: 8, Policy: "lru"}, 64)
	sweep := func() {
		for _, id := range ids {
			if _, err := pool.Get(id); err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, false)
		}
	}
	sweep() // warm: every frame, list node and map slot now exists
	before := pool.Counters()
	allocs := testing.AllocsPerRun(20, sweep)
	c := pool.Counters().Sub(before)
	// A sequential sweep of 64 pages through 8 LRU frames never hits.
	if c.Hits != 0 || c.Misses == 0 || c.Evictions != c.Misses {
		t.Fatalf("sweep was not all misses: %+v", c)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per sweep of %d misses, want 0", allocs, len(ids))
	}
	checkFrames(t, pool)
}

func TestPinnedPageSurvivesRecycling(t *testing.T) {
	for _, policy := range []string{"lru", "clock", "2q"} {
		pool, _, ids := filledPool(t, PoolKnobs{Pages: 8, Policy: policy}, 90)
		held, err := pool.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		image := bytes.Clone(held.Bytes())
		// Ten times the pool's capacity goes through the other frames.
		for _, id := range ids[1:81] {
			if _, err := pool.Get(id); err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, false)
		}
		if !bytes.Equal(held.Bytes(), image) {
			t.Fatalf("%s: pinned page's frame was reused", policy)
		}
		before := pool.Counters()
		again, err := pool.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if again != held || pool.Counters().Sub(before).Hits != 1 {
			t.Fatalf("%s: pinned page was evicted", policy)
		}
		pool.Unpin(ids[0], false)
		pool.Unpin(ids[0], false)
		checkFrames(t, pool)
	}
}

func TestFailedReadLeavesPageNonResident(t *testing.T) {
	pool, b, ids := filledPool(t, PoolKnobs{Pages: 8}, 20)
	if err := pool.DropCache(); err != nil {
		t.Fatal(err)
	}
	bad, good := ids[3], ids[4]
	corrupt(t, b, int64(bad)*PageSize+HeaderSize+40, 1, func(p []byte) { p[0] ^= 0xFF })
	for try := 0; try < 2; try++ {
		before := pool.Counters()
		if _, err := pool.Get(bad); err == nil {
			t.Fatal("corrupted page served without a checksum error")
		}
		if c := pool.Counters().Sub(before); c.Misses != 1 || c.PagesRead != 0 {
			t.Fatalf("failed read counted as %+v", c)
		}
		if _, resident := pool.frames[bad]; resident {
			t.Fatal("page resident after its read failed")
		}
	}
	pg, err := pool.Get(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(pg.Cell(0)); got != 4 {
		t.Fatalf("good page after a failed read holds cell %d, want 4", got)
	}
	pool.Unpin(good, false)
	checkFrames(t, pool)
}
