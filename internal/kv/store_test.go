package kv

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/index/indextest"
	"repro/internal/stats"
)

func smallKnobs() Knobs {
	return Knobs{MemtableCap: 64, MaxRuns: 3, SparseEvery: 8, BloomBitsPerKey: 10}
}

func TestPutGet(t *testing.T) {
	s := Open(smallKnobs())
	for k := uint64(0); k < 1000; k++ {
		s.Put(k, k*2)
	}
	for k := uint64(0); k < 1000; k++ {
		v, ok := s.Get(k)
		if !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := s.Get(99999); ok {
		t.Fatal("found absent key")
	}
}

func TestFlushAndCompact(t *testing.T) {
	s := Open(smallKnobs())
	for k := uint64(0); k < 2000; k++ {
		s.Put(k, k)
	}
	c := s.Counters()
	if c.Flushes == 0 {
		t.Fatal("no flushes")
	}
	if c.Compactions == 0 {
		t.Fatal("no compactions with MaxRuns=3")
	}
	if s.RunCount() > smallKnobs().MaxRuns+1 {
		t.Fatalf("run count %d exceeds budget", s.RunCount())
	}
}

func TestOverwriteAcrossFlush(t *testing.T) {
	s := Open(smallKnobs())
	s.Put(42, 1)
	for k := uint64(1000); k < 1200; k++ { // force flushes
		s.Put(k, k)
	}
	s.Put(42, 2)
	if v, _ := s.Get(42); v != 2 {
		t.Fatalf("newest version lost: %d", v)
	}
}

func TestDeleteTombstones(t *testing.T) {
	s := Open(smallKnobs())
	s.Put(7, 70)
	for k := uint64(1000); k < 1100; k++ {
		s.Put(k, k)
	}
	s.Delete(7)
	if _, ok := s.Get(7); ok {
		t.Fatal("deleted key visible")
	}
	// Force compaction; tombstone must still mask, then vanish.
	for k := uint64(2000); k < 3000; k++ {
		s.Put(k, k)
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	s := Open(smallKnobs())
	s.Put(5, 1)
	s.Delete(5)
	s.Put(5, 2)
	if v, ok := s.Get(5); !ok || v != 2 {
		t.Fatalf("reinsert after delete: %d,%v", v, ok)
	}
}

func TestScanMergesSources(t *testing.T) {
	s := Open(smallKnobs())
	// Old values flushed to runs.
	for k := uint64(0); k < 300; k++ {
		s.Put(k, 1)
	}
	s.Flush()
	// Overwrites and deletes in newer runs/memtable.
	for k := uint64(0); k < 300; k += 3 {
		s.Put(k, 2)
	}
	for k := uint64(1); k < 300; k += 3 {
		s.Delete(k)
	}
	var live, all []uint64
	for k := uint64(0); k < 300; k++ {
		v, ok := s.Get(k)
		switch want := []uint64{2, 0, 1}[k%3]; {
		case ok != (k%3 != 1) || v != want:
			t.Fatalf("key %d: Get = %d,%v, want %d,%v", k, v, ok, want, k%3 != 1)
		case ok:
			live = append(live, k)
		}
		all = append(all, k)
	}
	// A scan counts each live key once, whichever sources hold it, and
	// skips the tombstones in the newer ones.
	indextest.CheckScans(t, s.Scan, live, all, []int{1, 2, 3, 100, 199, 200, 201})
}

func TestScanEarlyStopAndEmptyRange(t *testing.T) {
	s := Open(smallKnobs())
	for k := uint64(0); k < 100; k++ {
		s.Put(k, k)
	}
	if n := s.Scan(0, 5); n != 5 {
		t.Fatalf("early stop at %d", n)
	}
	if n := s.Scan(100, 10); n != 0 {
		t.Fatalf("scan past the last key visited %d", n)
	}
	for _, limit := range []int{0, -1} {
		if n := s.Scan(0, limit); n != 0 {
			t.Fatalf("scan with limit %d visited %d", limit, n)
		}
	}
}

// TestScanAllocatesNothing: a scan over a store with several runs reuses the
// store's cursors.
func TestScanAllocatesNothing(t *testing.T) {
	s := Open(Knobs{MemtableCap: 4096, MaxRuns: 8, SparseEvery: 8})
	for k := uint64(0); k < 1000; k++ {
		s.Put(k*7, k)
		if k%300 == 299 {
			s.Flush()
		}
	}
	if s.RunCount() < 2 {
		t.Fatalf("%d runs, want at least 2", s.RunCount())
	}
	lo := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		lo += 61
		s.Scan(lo, 200)
	}); allocs != 0 {
		t.Fatalf("a scan allocated %v times", allocs)
	}
}

func TestBloomFiltersSkipRuns(t *testing.T) {
	with := Open(Knobs{MemtableCap: 64, MaxRuns: 16, SparseEvery: 8, BloomBitsPerKey: 12})
	without := Open(Knobs{MemtableCap: 64, MaxRuns: 16, SparseEvery: 8, BloomBitsPerKey: 0})
	for k := uint64(0); k < 3000; k += 2 {
		with.Put(k, k)
		without.Put(k, k)
	}
	for k := uint64(1); k < 3000; k += 2 { // all misses
		with.Get(k)
		without.Get(k)
	}
	cw, co := with.Counters(), without.Counters()
	if cw.BloomNegatives == 0 {
		t.Fatal("bloom filter never skipped a run")
	}
	if cw.RunProbes >= co.RunProbes {
		t.Fatalf("bloom filters did not reduce probes: %d vs %d", cw.RunProbes, co.RunProbes)
	}
}

func TestSetKnobsCompactsImmediately(t *testing.T) {
	s := Open(Knobs{MemtableCap: 64, MaxRuns: 16, SparseEvery: 8})
	for k := uint64(0); k < 2000; k++ {
		s.Put(k, k)
	}
	before := s.RunCount()
	if before < 2 {
		t.Skipf("need multiple runs, got %d", before)
	}
	k := s.Knobs()
	k.MaxRuns = 1
	s.SetKnobs(k)
	if s.RunCount() != 1 {
		t.Fatalf("re-tune did not compact: %d runs", s.RunCount())
	}
	for key := uint64(0); key < 2000; key += 101 {
		if v, ok := s.Get(key); !ok || v != key {
			t.Fatalf("Get(%d) after re-tune = %d,%v", key, v, ok)
		}
	}
}

func TestRandomOpsVsModel(t *testing.T) {
	f := func(seed uint64) bool {
		s := Open(Knobs{MemtableCap: 128, MaxRuns: 2, SparseEvery: 4, BloomBitsPerKey: 8})
		r := stats.NewRNG(seed)
		ref := make(map[uint64]uint64)
		for op := 0; op < 5000; op++ {
			k := r.Uint64() % 500 // small space to force overwrites
			switch r.Intn(4) {
			case 0, 1:
				v := r.Uint64()
				s.Put(k, v)
				ref[k] = v
			case 2:
				s.Delete(k)
				delete(ref, k)
			case 3:
				wantV, wantOK := ref[k]
				gotV, gotOK := s.Get(k)
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					return false
				}
			}
		}
		// Every key's value and every scan count must equal the model's.
		live := make([]uint64, 0, len(ref))
		for k, v := range ref {
			if got, ok := s.Get(k); !ok || got != v {
				return false
			}
			live = append(live, k)
		}
		slices.Sort(live)
		for lo := uint64(0); lo <= 500; lo++ {
			for _, limit := range []int{1, 7, 64, len(live), len(live) + 1} {
				if s.Scan(lo, limit) != indextest.ScanCount(live, lo, limit) {
					return false
				}
			}
		}
		return s.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestKnobsValidate(t *testing.T) {
	k := Knobs{MemtableCap: -1, MaxRuns: 0, SparseEvery: 0, BloomBitsPerKey: 100}.Validate()
	if k.MemtableCap < 64 || k.MaxRuns < 1 || k.SparseEvery < 1 || k.BloomBitsPerKey > 32 {
		t.Fatalf("validate failed: %+v", k)
	}
	if DefaultKnobs().String() == "" {
		t.Fatal("empty knob string")
	}
}

func TestSpaceSizeAndUniqueness(t *testing.T) {
	sp := Space()
	if len(sp) != 144 {
		t.Fatalf("space size = %d", len(sp))
	}
	seen := map[string]bool{}
	for _, k := range sp {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate knob point %s", s)
		}
		seen[s] = true
	}
}

// Detailed filter behavior (FPR at several bits-per-key, nil semantics)
// lives in internal/kv/bloom since the extraction; here we only pin that
// runs actually wire the shared filter in and that it pays off on misses.
func TestRunsUseSharedBloom(t *testing.T) {
	s := Open(smallKnobs())
	for k := uint64(0); k < 500; k += 2 {
		s.Put(k, k)
	}
	s.Flush()
	for k := uint64(1 << 40); k < 1<<40+200; k++ {
		s.Get(k)
	}
	if c := s.Counters(); c.BloomNegatives == 0 {
		t.Fatalf("no bloom negatives on a miss-only probe: %+v", c)
	}
}

func TestCountersProgress(t *testing.T) {
	s := Open(smallKnobs())
	for k := uint64(0); k < 500; k++ {
		s.Put(k, k)
	}
	s.Get(1)
	s.Delete(2)
	c := s.Counters()
	if c.Puts != 500 || c.Gets != 1 || c.Deletes != 1 {
		t.Fatalf("counters = %+v", c)
	}
}
