package pager

import (
	"bytes"
	"encoding/binary"
	"slices"
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

// checkFrames asserts the recycling bound — the pool never owns more frames
// than its capacity — and that exactly the resident ones are in the table.
func checkFrames(t *testing.T, pool *Pool) {
	t.Helper()
	if len(pool.slots) > pool.knobs.Pages || pool.resident > len(pool.slots) {
		t.Fatalf("%d frames exist, %d resident, in a pool of %d", len(pool.slots), pool.resident, pool.knobs.Pages)
	}
	for i, fr := range pool.slots {
		if fr.slot != i || (pool.frames.at(fr.id) == fr) != (i < pool.resident) {
			t.Fatalf("frame %d of %d resident: slot %d, page %d, table says %v",
				i, pool.resident, fr.slot, fr.id, pool.frames.at(fr.id) == fr)
		}
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

// tableSizes returns the length of every page-number table p and its policy
// keep, the frame table first.
func tableSizes(p *Pool) []int {
	pol := p.policy
	if v, ok := pol.(*victimLog); ok {
		pol = v.evictPolicy
	}
	n := []int{len(p.frames)}
	switch pol := pol.(type) {
	case *lruPolicy:
		n = append(n, len(pol.ll.pos))
	case *clockPolicy:
		n = append(n, len(pol.pages))
	case *twoQPolicy:
		n = append(n, len(pol.a1.pos), len(pol.am.pos), len(pol.ghost.pos))
	}
	return n
}

func TestPoolMissAllocatesNothingOnceWarm(t *testing.T) {
	for _, policy := range []string{"lru", "clock", "2q"} {
		pool, _, ids := filledPool(t, PoolKnobs{Pages: 8, Policy: policy}, 64)
		get := func(ids []PageID) func() {
			return func() {
				for _, id := range ids {
					if _, err := pool.Get(id); err != nil {
						t.Fatal(err)
					}
					pool.Unpin(id, false)
				}
			}
		}
		// A sequential sweep of 64 pages through 8 frames never hits (2Q's
		// ghosts turn a few re-reads into protected pages, which then do).
		sweep := get(ids)
		sweep() // warm: every frame, list node and table slot now exists
		before := pool.Counters()
		allocs := testing.AllocsPerRun(20, sweep)
		c := pool.Counters().Sub(before)
		if c.Misses == 0 || c.Evictions != c.Misses || (policy != "2q" && c.Hits != 0) {
			t.Fatalf("%s: sweep was not all misses: %+v", policy, c)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations per sweep of %d misses, want 0", policy, allocs, len(ids))
		}

		hot := get(ids[:8])
		hot()
		before = pool.Counters()
		allocs = testing.AllocsPerRun(20, hot)
		if c := pool.Counters().Sub(before); c.Misses != 0 || c.Hits == 0 {
			t.Fatalf("%s: resident pages missed: %+v", policy, c)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations per 8 hits, want 0", policy, allocs)
		}

		// The steady state of a copy-on-write structure: write new pages,
		// free the ones they replace, checkpoint.
		var old [4]PageID
		copy(old[:], ids[8:])
		cycle := func() {
			for i := range old {
				_, id, err := pool.Alloc(TypeRun)
				if err != nil {
					t.Fatal(err)
				}
				pool.Unpin(id, true)
				if err := pool.Free(old[i]); err != nil {
					t.Fatal(err)
				}
				old[i] = id
			}
			if err := pool.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		cycle() // warm: the free-list and the flush scratch have their capacity
		count := pool.File().PageCount()
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Fatalf("%s: %.1f allocations per alloc/free/checkpoint cycle, want 0", policy, allocs)
		}
		if got := pool.File().PageCount(); got != count {
			t.Fatalf("%s: file grew from %d to %d pages in a cycle that frees what it allocates", policy, count, got)
		}
		checkFrames(t, pool)
	}
}

func TestFreeRefusesPagesAllocNeverIssued(t *testing.T) {
	pool := NewPool(memFile(t), PoolKnobs{Pages: 8})
	for _, id := range []PageID{0, 1, 2, 99, 1 << 31} { // a 2-page file: nothing is freeable
		if err := pool.Free(id); err == nil {
			t.Errorf("Free(%d) accepted on a file of %d pages", id, pool.File().PageCount())
		}
	}
	if free := pool.FreePages(); len(free) != 0 {
		t.Fatalf("refused frees reached the free-list: %v", free)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, id, err := pool.Alloc(TypeRun)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if id != 2 {
		t.Fatalf("alloc after refused frees issued page %d, want 2", id)
	}
	if err := pool.Free(id); err != nil { // the last page of the file is a page like any other
		t.Fatal(err)
	}
	if err := pool.CheckConsistency(nil); err != nil {
		t.Fatal(err)
	}
}

func TestWildPageIDGrowsNoTable(t *testing.T) {
	for _, policy := range []string{"lru", "clock", "2q"} {
		pool, _, ids := filledPool(t, PoolKnobs{Pages: 8, Policy: policy}, 8) // ten pages with the metas
		for _, id := range ids {
			if _, err := pool.Get(id); err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, false)
		}
		sizes := tableSizes(pool)
		refused := func(id PageID) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := pool.Get(id); err == nil {
					t.Fatalf("%s: Get(%d) succeeded on a ten-page file", policy, id)
				}
			})
		}
		// A refusal costs its error value (a few allocations, a couple more
		// under the race detector) and nothing that scales with the ID; the
		// table lengths below are the direct check.
		for _, id := range []PageID{PageID(pool.File().PageCount()), 1 << 31, 1<<32 - 1} {
			if n := refused(id); n > 8 {
				t.Errorf("%s: refusing page %d takes %.0f allocations", policy, id, n)
			}
		}
		if got := tableSizes(pool); !slices.Equal(got, sizes) || got[0] > int(pool.File().PageCount()) {
			t.Errorf("%s: tables grew from %v to %v entries on a %d-page file", policy, sizes, got, pool.File().PageCount())
		}
	}
}

// TestTwoQGhostOfTheLastPage: a table is exactly as long as the largest ID
// it has seen, so the file's last page is the edge case of every lookup —
// here as a ghost, which lives in a table of its own while not resident.
func TestTwoQGhostOfTheLastPage(t *testing.T) {
	filled, _, ids := filledPool(t, PoolKnobs{Pages: 8, Policy: "2q"}, 30)
	pool := NewPool(filled.File(), filled.Knobs()) // a policy with no history
	q := pool.policy.(*twoQPolicy)
	last := ids[len(ids)-1]
	for _, id := range append([]PageID{last}, ids[:8]...) { // the ninth read evicts the first from probation
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
	if pool.frames.at(last) != nil || q.ghost.pos.at(last) == 0 || len(q.ghost.pos) != int(last)+1 {
		t.Fatalf("page %d should be a ghost at the end of a %d-entry table (resident: %v)",
			last, len(q.ghost.pos), pool.frames.at(last) != nil)
	}
	if _, err := pool.Get(last); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(last, false)
	if q.am.pos.at(last) == 0 || q.a1.pos.at(last) != 0 || q.ghost.pos.at(last) != 0 {
		t.Fatalf("returning ghost %d was not promoted: am=%d a1=%d ghost=%d",
			last, q.am.pos.at(last), q.a1.pos.at(last), q.ghost.pos.at(last))
	}
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
		if pool.frames.at(bad) != nil {
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

// BenchmarkPoolGet is the pool's own cost per Get, over a backend that does
// no I/O: a 16-page LRU pool on a 256-page file, visited with a fixed stride
// so that every Get of "hit" hits and every Get of "miss" evicts and reads.
func BenchmarkPoolGet(b *testing.B) {
	for _, c := range []struct {
		name string
		span int // pages the stride cycles over
	}{{"hit", 16}, {"miss", 256}} {
		b.Run(c.name, func(b *testing.B) {
			f, err := Create(NewMemBackend())
			if err != nil {
				b.Fatal(err)
			}
			pool := NewPool(f, PoolKnobs{Pages: 16, Policy: "lru"})
			ids := make([]PageID, 256)
			for i := range ids {
				if _, ids[i], err = pool.Alloc(TypeLeaf); err != nil {
					b.Fatal(err)
				}
				pool.Unpin(ids[i], true)
			}
			if err := pool.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			get := func(i int) {
				id := ids[i%c.span]
				if _, err := pool.Get(id); err != nil {
					b.Fatal(err)
				}
				pool.Unpin(id, false)
			}
			for i := 0; i < 2*c.span; i++ { // warm: the span's pages resident, or the LRU order the sweep's
				get(i)
			}
			before := pool.Counters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(i)
			}
			b.StopTimer()
			got := pool.Counters().Sub(before)
			if want := (Counters{Hits: uint64(b.N)}); c.name == "hit" && got != want {
				b.Fatalf("%d gets of resident pages counted %+v", b.N, got)
			}
			if want := uint64(b.N); c.name == "miss" && (got.Misses != want || got.Evictions != want || got.PagesRead != want) {
				b.Fatalf("%d gets of evicted pages counted %+v", b.N, got)
			}
		})
	}
}
