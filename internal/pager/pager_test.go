package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

func memFile(t *testing.T) *File {
	t.Helper()
	f, err := Create(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// corrupt rewrites n bytes of b at off through edit, behind the pager's
// back but through the Backend's own ReadAt/WriteAt.
func corrupt(t *testing.T, b Backend, off int64, n int, edit func(p []byte)) {
	t.Helper()
	p := make([]byte, n)
	if _, err := b.ReadAt(p, off); err != nil {
		t.Fatal(err)
	}
	edit(p)
	if _, err := b.WriteAt(p, off); err != nil {
		t.Fatal(err)
	}
}

func TestSlottedPageInsertDelete(t *testing.T) {
	var p Page
	p.Reset(7, TypeLeaf)
	if p.ID() != 7 || p.Type() != TypeLeaf || p.NumCells() != 0 {
		t.Fatalf("fresh page: id=%d type=%d cells=%d", p.ID(), p.Type(), p.NumCells())
	}
	// Insert cells in slot order with distinct contents.
	for i := 0; i < 10; i++ {
		cell := []byte(fmt.Sprintf("cell-%02d", i))
		if !p.Insert(i, cell) {
			t.Fatalf("insert %d failed with %d free", i, p.FreeSpace())
		}
	}
	// Insert in the middle shifts slots.
	if !p.Insert(5, []byte("mid")) {
		t.Fatal("mid insert failed")
	}
	if got := string(p.Cell(5)); got != "mid" {
		t.Fatalf("cell 5 = %q", got)
	}
	if got := string(p.Cell(6)); got != "cell-05" {
		t.Fatalf("cell 6 = %q", got)
	}
	p.Delete(5)
	if got := string(p.Cell(5)); got != "cell-05" {
		t.Fatalf("after delete, cell 5 = %q", got)
	}
	if p.NumCells() != 10 {
		t.Fatalf("cells = %d", p.NumCells())
	}
}

func TestSlottedPageFillAndCompact(t *testing.T) {
	var p Page
	p.Reset(3, TypeRun)
	cell := make([]byte, 16)
	n := 0
	for p.Insert(p.NumCells(), cell) {
		n++
	}
	want := (PageSize - HeaderSize) / 20 // 16 bytes cell + 4 bytes slot
	if n != want {
		t.Fatalf("fixed 16-byte cells per page = %d, want %d", n, want)
	}
	// Delete half (every other), then the freed space must be reusable
	// via compaction even though it is fragmented.
	for i := n - 1; i >= 0; i -= 2 {
		p.Delete(i)
	}
	refill := 0
	for p.Insert(p.NumCells(), cell) {
		refill++
	}
	if refill < n/2-1 {
		t.Fatalf("refilled only %d of ~%d freed slots", refill, n/2)
	}
}

func TestPageChecksumRoundTrip(t *testing.T) {
	f := memFile(t)
	pool := NewPool(f, PoolKnobs{Pages: 8})
	pg, id, err := pool.Alloc(TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pg.Insert(0, []byte("hello"))
	pool.Unpin(id, true)
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Reopen and read it back through a fresh pool.
	f2, err := Open(f.b)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := NewPool(f2, PoolKnobs{Pages: 8})
	got, err := pool2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Cell(0)) != "hello" {
		t.Fatalf("cell = %q", got.Cell(0))
	}
	pool2.Unpin(id, false)
}

func TestChecksumRejectionOnReload(t *testing.T) {
	b := NewMemBackend()
	f, err := Create(b)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(f, PoolKnobs{Pages: 8})
	pg, id, err := pool.Alloc(TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pg.Insert(0, []byte("payload"))
	pool.Unpin(id, true)
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte behind the pager's back.
	corrupt(t, b, int64(id)*PageSize+HeaderSize+100, 1, func(p []byte) { p[0] ^= 0xFF })

	f2, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := NewPool(f2, PoolKnobs{Pages: 8})
	if _, err := pool2.Get(id); err == nil {
		t.Fatal("corrupted page served without a checksum error")
	}
}

func TestMisdirectedWriteDetected(t *testing.T) {
	b := NewMemBackend()
	f, err := Create(b)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(f, PoolKnobs{Pages: 8})
	var ids []PageID
	for i := 0; i < 2; i++ {
		pg, id, err := pool.Alloc(TypeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		pg.Insert(0, []byte{byte(i)})
		pool.Unpin(id, true)
		ids = append(ids, id)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Copy page ids[0]'s bytes over ids[1]: checksum is valid but the
	// self-reference betrays the misdirected write.
	src := make([]byte, PageSize)
	if _, err := b.ReadAt(src, int64(ids[0])*PageSize); err != nil {
		t.Fatal(err)
	}
	corrupt(t, b, int64(ids[1])*PageSize, PageSize, func(p []byte) { copy(p, src) })

	f2, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := NewPool(f2, PoolKnobs{Pages: 8})
	if _, err := pool2.Get(ids[1]); err == nil {
		t.Fatal("misdirected page served without error")
	}
}

func TestTornMetaFallsBackToOlderCheckpoint(t *testing.T) {
	b := NewMemBackend()
	f, err := Create(b)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(f, PoolKnobs{Pages: 8})
	pg, id, err := pool.Alloc(TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pg.Insert(0, []byte("v1"))
	pool.Unpin(id, true)
	f.SetRoot(0, id)
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epoch1 := f.published.epoch

	// Second checkpoint writes the other meta slot; tear it mid-write.
	pg2, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	pg2.SetCell(0, []byte("v2"))
	pool.Unpin(id, true)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	slot := PageID((epoch1 + 1) % 2)
	f.working.epoch = epoch1 + 1
	if err := f.writeMeta(slot, f.working); err != nil {
		t.Fatal(err)
	}
	// Tear: zero the first half of the just-written meta page (checksum,
	// magic, and epoch all land there).
	corrupt(t, b, int64(slot)*PageSize, PageSize/2, func(p []byte) { clear(p) })

	f2, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if f2.published.epoch != epoch1 {
		t.Fatalf("opened epoch %d, want fallback to %d", f2.published.epoch, epoch1)
	}
	if f2.Root(0) != id {
		t.Fatalf("root = %d, want %d", f2.Root(0), id)
	}
}

func TestTornDataPageOnWrite(t *testing.T) {
	// A torn page write (power cut mid-write) must surface as an error on
	// reload, not as silently wrong data. Uses the FileBackend write hook
	// — the same failure-injection pattern as service.Store's fsync hook.
	dir := t.TempDir()
	fb, err := NewFileBackend(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Create(fb)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(f, PoolKnobs{Pages: 8})
	pg, id, err := pool.Alloc(TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pg.Insert(0, []byte("durable"))
	pool.Unpin(id, true)
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Now rewrite the page, but the write tears half-way and the machine
	// "dies" (we simply stop using the handles).
	torn := errors.New("simulated power cut")
	fb.WriteHook = func(off int64, p []byte) (int, error) {
		if off == int64(id)*PageSize {
			return PageSize / 3, torn
		}
		return len(p), nil
	}
	pg2, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	pg2.SetCell(0, []byte("mutated"))
	pool.Unpin(id, true)
	if err := pool.Flush(); !errors.Is(err, torn) {
		t.Fatalf("flush error = %v, want the injected tear", err)
	}
	fb.WriteHook = nil

	// Reload: the torn page must be rejected by its checksum.
	fb2, err := NewFileBackend(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	f2, err := Open(fb2)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := NewPool(f2, PoolKnobs{Pages: 8})
	if _, err := pool2.Get(id); err == nil {
		t.Fatal("torn page served without a checksum error")
	}
}

func TestAllocFreeReuseAcrossCheckpoint(t *testing.T) {
	f := memFile(t)
	pool := NewPool(f, PoolKnobs{Pages: 16})
	var ids []PageID
	for i := 0; i < 5; i++ {
		_, id, err := pool.Alloc(TypeRun)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, true)
		ids = append(ids, id)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	// Quarantine: freed pages must NOT be reused before a checkpoint.
	_, id, err := pool.Alloc(TypeRun)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if id == ids[1] || id == ids[3] {
		t.Fatalf("quarantined page %d reused before checkpoint", id)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Now the lowest freed page is the next allocation.
	_, id2, err := pool.Alloc(TypeRun)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id2, true)
	if id2 != ids[1] {
		t.Fatalf("alloc after checkpoint = %d, want reused %d", id2, ids[1])
	}
}

func TestCheckConsistency(t *testing.T) {
	f := memFile(t)
	pool := NewPool(f, PoolKnobs{Pages: 16})
	var ids []PageID
	for i := 0; i < 4; i++ {
		_, id, err := pool.Alloc(TypeRun)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, true)
		ids = append(ids, id)
	}
	if err := pool.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	reachable := []PageID{ids[0], ids[1], ids[3]}
	if err := pool.CheckConsistency(reachable); err != nil {
		t.Fatal(err)
	}
	// An orphan (reachable set missing a live page) must be caught.
	if err := pool.CheckConsistency(reachable[:2]); err == nil {
		t.Fatal("orphan page not detected")
	}
	// A page both free and reachable must be caught.
	if err := pool.CheckConsistency(append(reachable, ids[2])); err == nil {
		t.Fatal("free+reachable overlap not detected")
	}
}

func TestRebuildFreeList(t *testing.T) {
	f := memFile(t)
	pool := NewPool(f, PoolKnobs{Pages: 16})
	for i := 0; i < 6; i++ {
		_, id, err := pool.Alloc(TypeRun)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, true)
	}
	// Pretend only pages 3 and 5 survived (e.g. reread from a catalog).
	pool.RebuildFreeList([]PageID{3, 5})
	if err := pool.CheckConsistency([]PageID{3, 5}); err != nil {
		t.Fatal(err)
	}
	// The rebuilt list hands out the lowest free page first.
	_, id, err := pool.Alloc(TypeRun)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if id != 2 {
		t.Fatalf("first alloc after rebuild = %d, want 2", id)
	}
}

func TestOpenRejectsGarbageFile(t *testing.T) {
	b := NewMemBackend()
	junk := make([]byte, PageSize*2)
	for i := range junk {
		junk[i] = byte(i * 31)
	}
	if _, err := b.WriteAt(junk, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(b); err == nil {
		t.Fatal("opened a garbage file")
	}
}

func TestPoolCountersAndPolicies(t *testing.T) {
	for _, policy := range []string{"lru", "clock", "2q"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			f := memFile(t)
			pool := NewPool(f, PoolKnobs{Pages: 8, Policy: policy})
			var ids []PageID
			for i := 0; i < 32; i++ {
				pg, id, err := pool.Alloc(TypeRun)
				if err != nil {
					t.Fatal(err)
				}
				var cell [16]byte
				binary.LittleEndian.PutUint64(cell[:], uint64(i))
				pg.Insert(0, cell[:])
				pool.Unpin(id, true)
				ids = append(ids, id)
			}
			if err := pool.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Random-ish but deterministic access pattern.
			for i := 0; i < 200; i++ {
				id := ids[(i*7)%len(ids)]
				pg, err := pool.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if got := binary.LittleEndian.Uint64(pg.Cell(0)); got != uint64((int(id)-2)%32) {
					t.Fatalf("page %d cell = %d", id, got)
				}
				pool.Unpin(id, false)
			}
			c := pool.Counters()
			if c.Misses == 0 || c.Evictions == 0 {
				t.Fatalf("%s: no pressure exercised: %+v", policy, c)
			}
			if c.Hits+c.Misses < 200 {
				t.Fatalf("%s: accounting lost requests: %+v", policy, c)
			}
			if c.PagesRead != c.Misses {
				t.Fatalf("%s: reads %d != misses %d", policy, c.PagesRead, c.Misses)
			}
		})
	}
}

func TestPoolDeterminism(t *testing.T) {
	// Identical op sequences must produce identical counters — the
	// property the byte-identical virtual-clock results rest on.
	run := func(policy string) Counters {
		f, err := Create(NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		pool := NewPool(f, PoolKnobs{Pages: 12, Policy: policy})
		var ids []PageID
		for i := 0; i < 64; i++ {
			_, id, err := pool.Alloc(TypeRun)
			if err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, true)
			ids = append(ids, id)
		}
		for i := 0; i < 500; i++ {
			id := ids[(i*i*31+i)%len(ids)]
			if _, err := pool.Get(id); err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, i%3 == 0)
		}
		if err := pool.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return pool.Counters()
	}
	for _, policy := range []string{"lru", "clock", "2q"} {
		a, b := run(policy), run(policy)
		if a != b {
			t.Fatalf("%s: counters diverged across identical runs:\n%+v\n%+v", policy, a, b)
		}
	}
}

func TestPoliciesDifferOnSkewedAccess(t *testing.T) {
	// A hot set inside probation-polluting scan traffic: policies must
	// produce different hit ratios (the knob is worth tuning).
	run := func(policy string) float64 {
		f, err := Create(NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		pool := NewPool(f, PoolKnobs{Pages: 16, Policy: policy})
		var ids []PageID
		for i := 0; i < 128; i++ {
			_, id, err := pool.Alloc(TypeRun)
			if err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, true)
			ids = append(ids, id)
		}
		for i := 0; i < 4000; i++ {
			var id PageID
			if i%2 == 0 {
				id = ids[(i/2)%12] // hot set: 12 pages, re-touched constantly
			} else {
				id = ids[12+(i*13)%116] // cold sweep polluting the cache
			}
			if _, err := pool.Get(id); err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, false)
		}
		return pool.Counters().HitRatio()
	}
	ratios := map[string]float64{}
	for _, p := range []string{"lru", "clock", "2q"} {
		ratios[p] = run(p)
	}
	lo, hi := 1.0, 0.0
	for _, r := range ratios {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo < 0.01 {
		t.Fatalf("policies indistinguishable on skewed access: %+v", ratios)
	}
}

func TestPoolExhaustion(t *testing.T) {
	f := memFile(t)
	pool := NewPool(f, PoolKnobs{Pages: 8})
	for i := 0; i < 8; i++ {
		_, _, err := pool.Alloc(TypeRun)
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately keep pinned.
	}
	if _, _, err := pool.Alloc(TypeRun); err == nil {
		t.Fatal("alloc succeeded with every frame pinned")
	}
}

func TestKnobsValidateAndSpace(t *testing.T) {
	k := PoolKnobs{Pages: 1, Policy: "bogus"}.Validate()
	if k.Pages != 8 || k.Policy != "lru" {
		t.Fatalf("validated = %+v", k)
	}
	// Every point of the policy space validates to itself.
	for _, policy := range []string{"lru", "clock", "2q"} {
		want := PoolKnobs{Pages: 64, Policy: policy}
		if got := want.Validate(); got != want {
			t.Fatalf("Validate(%s) = %s", want, got)
		}
	}
}
