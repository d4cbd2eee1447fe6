package kv

import (
	"slices"
	"testing"

	"repro/internal/index/indextest"
	"repro/internal/pager"
)

func newDiskStore(t *testing.T, knobs Knobs) *Store {
	t.Helper()
	f, err := pager.Create(pager.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenDisk(pager.NewPool(f, pager.PoolKnobs{Pages: 32}), knobs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testKnobs() Knobs {
	return Knobs{MemtableCap: 256, MaxRuns: 3, SparseEvery: 64, BloomBitsPerKey: 10}
}

func TestDiskStoreMatchesMemStore(t *testing.T) {
	// The disk store must agree with the in-memory store op for op: same
	// design, different media.
	mem := Open(testKnobs())
	disk := newDiskStore(t, testKnobs())
	const n = 5000
	for i := uint64(0); i < n; i++ {
		k := mix64(i % 1500) // overwrites included
		mem.Put(k, i)
		disk.Put(k, i)
		if i%7 == 0 {
			dk := mix64((i * 3) % 1500)
			mem.Delete(dk)
			disk.Delete(dk)
		}
	}
	for i := uint64(0); i < 1500; i++ {
		k := mix64(i)
		mv, mok := mem.Get(k)
		dv, dok := disk.Get(k)
		if mv != dv || mok != dok {
			t.Fatalf("key %d: mem=(%d,%v) disk=(%d,%v)", k, mv, mok, dv, dok)
		}
	}
	if mem.Len() != disk.Len() {
		t.Fatalf("len: mem=%d disk=%d", mem.Len(), disk.Len())
	}
	// Scans count the same live keys at every probe.
	var live, probes []uint64
	for i := uint64(0); i < 1500; i++ {
		k := mix64(i)
		if _, ok := mem.Get(k); ok {
			live = append(live, k)
		}
		if i%10 == 0 {
			probes = append(probes, k)
		}
	}
	slices.Sort(live)
	limits := []int{1, 63, 64, 65, 200, len(live)}
	indextest.CheckScans(t, mem.Scan, live, probes, limits)
	indextest.CheckScans(t, disk.Scan, live, probes, limits)
}

func TestDiskStoreFlushAndCompactMovePages(t *testing.T) {
	s := newDiskStore(t, testKnobs())
	for i := uint64(0); i < 2000; i++ {
		s.Put(mix64(i), i)
	}
	c := s.Counters()
	if c.Flushes == 0 || c.Compactions == 0 {
		t.Fatalf("no flush/compaction traffic: %+v", c)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pc := s.Pool().Counters()
	if pc.PagesWritten == 0 || pc.Fsyncs == 0 {
		t.Fatalf("checkpoint wrote no pages: %+v", pc)
	}
	if s.RunCount() > s.Knobs().MaxRuns {
		t.Fatalf("runs %d exceed budget %d", s.RunCount(), s.Knobs().MaxRuns)
	}
}

func TestDiskStoreBloomSkipsRuns(t *testing.T) {
	s := newDiskStore(t, testKnobs())
	for i := uint64(0); i < 600; i++ {
		s.Put(mix64(i), i)
	}
	s.Flush()
	for i := uint64(10000); i < 10200; i++ {
		s.Get(mix64(i))
	}
	if s.Counters().BloomNegatives == 0 {
		t.Fatal("misses never skipped a run via the Bloom filter")
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	b := pager.NewMemBackend()
	f, err := pager.Create(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenDisk(pager.NewPool(f, pager.PoolKnobs{Pages: 32}), testKnobs())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := uint64(0); i < n; i++ {
		s.Put(mix64(i), i)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f2, err := pager.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDisk(pager.NewPool(f2, pager.PoolKnobs{Pages: 32}), testKnobs())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Pool().CheckConsistency(s2.Reachable()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := s2.Get(mix64(i)); !ok || v != i {
			t.Fatalf("reopened get %d = (%d,%v)", i, v, ok)
		}
	}
	// Rebuilt Bloom filters still work.
	for i := uint64(50000); i < 50100; i++ {
		s2.Get(mix64(i))
	}
	if s2.Counters().BloomNegatives == 0 {
		t.Fatal("rebuilt filters never fired")
	}
}

func TestDiskStoreCrashDuringCompactionRecovers(t *testing.T) {
	// Kill the store mid-compaction (no checkpoint after it) and reopen:
	// the published catalog must still describe intact runs, and the
	// rebuilt free-list must partition the file cleanly.
	b := pager.NewMemBackend()
	f, err := pager.Create(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenDisk(pager.NewPool(f, pager.PoolKnobs{Pages: 32}), testKnobs())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := uint64(0); i < n; i++ {
		s.Put(mix64(i), i)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// More writes force flushes and at least one compaction, all
	// unpublished. Evictions write pages, but only to fresh or
	// post-checkpoint-freed slots — never over published pages.
	for i := n; i < 2*n; i++ {
		s.Put(mix64(uint64(i)), uint64(i))
	}
	if s.Counters().Compactions == 0 {
		t.Fatal("workload did not trigger a compaction")
	}
	// Crash: drop all in-memory state, reopen from the backend bytes.
	f2, err := pager.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDisk(pager.NewPool(f2, pager.PoolKnobs{Pages: 32}), testKnobs())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Pool().CheckConsistency(s2.Reachable()); err != nil {
		t.Fatalf("free-list inconsistent after mid-compaction crash: %v", err)
	}
	// Exactly the checkpointed state survives.
	for i := uint64(0); i < n; i++ {
		if v, ok := s2.Get(mix64(i)); !ok || v != i {
			t.Fatalf("checkpointed key %d lost: (%d,%v)", i, v, ok)
		}
	}
	if s2.Len() != n {
		t.Fatalf("len after crash = %d, want %d", s2.Len(), n)
	}
	// And the store keeps working after recovery.
	for i := uint64(0); i < 500; i++ {
		s2.Put(mix64(100000+i), i)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(mix64(100123)); !ok || v != 123 {
		t.Fatalf("post-recovery write lost: (%d,%v)", v, ok)
	}
}

func TestDiskStoreEmptyCheckpointReopen(t *testing.T) {
	b := pager.NewMemBackend()
	f, err := pager.Create(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenDisk(pager.NewPool(f, pager.PoolKnobs{Pages: 16}), testKnobs())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f2, err := pager.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDisk(pager.NewPool(f2, pager.PoolKnobs{Pages: 16}), testKnobs())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("empty store reopened with %d keys", s2.Len())
	}
}

// mix64 is a deterministic key scrambler (splitmix64 finalizer).
func mix64(x uint64) uint64 {
	z := x*0x9E3779B97F4A7C15 + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
