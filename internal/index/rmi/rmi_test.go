package rmi

import (
	"slices"
	"testing"

	"repro/internal/distgen"
	"repro/internal/index"
	"repro/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, func() index.Ordered { return NewDefault() })
}

func TestConformanceFewModels(t *testing.T) {
	indextest.Run(t, func() index.Ordered { return New(4) })
}

func TestTrainOnSequentialTightErrors(t *testing.T) {
	keys := distgen.UniqueKeys(distgen.NewSequential(1, 0, 8), 100000)
	vals := make([]uint64, len(keys))
	ix := New(256)
	ix.BulkLoad(keys, vals)
	if e := ix.MaxLeafError(); e > 64 {
		t.Fatalf("sequential data should train tightly, max err = %d", e)
	}
	if ix.ModelCount() != 257 {
		t.Fatalf("model count = %d", ix.ModelCount())
	}
}

func TestHardDistributionStillCorrect(t *testing.T) {
	keys := distgen.UniqueKeys(distgen.NewClustered(2, 50, 1e6), 50000)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	ix := NewDefault()
	ix.BulkLoad(keys, vals)
	for i, k := range keys {
		if v, ok := ix.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestDeltaAutoMerge(t *testing.T) {
	keys := distgen.UniqueKeys(distgen.NewUniform(3, 0, 1<<40), 10000)
	vals := make([]uint64, len(keys))
	ix := NewDefault()
	ix.BulkLoad(keys, vals)
	// Insert until the delta threshold (25%) forces a merge.
	inserted := 0
	for k := uint64(1); inserted < 4000; k += 7919 {
		if _, ok := ix.Get(k); !ok {
			ix.Insert(k, k)
			inserted++
		}
	}
	if ix.DeltaLen() >= 4000 {
		t.Fatalf("delta never merged: %d", ix.DeltaLen())
	}
	if ix.Stats().Splits == 0 {
		t.Fatal("auto-retrain not recorded in Splits")
	}
}

func TestRetrainReturnsWork(t *testing.T) {
	ix := NewDefault()
	keys := distgen.UniqueKeys(distgen.NewUniform(4, 0, 1<<40), 5000)
	ix.BulkLoad(keys, make([]uint64, len(keys)))
	for k := uint64(3); k < 100; k += 2 {
		ix.Insert(k, k)
	}
	if w := ix.Retrain(); w <= 0 {
		t.Fatalf("Retrain work = %d", w)
	}
	if ix.DeltaLen() != 0 {
		t.Fatal("Retrain left delta entries")
	}
}

func TestUntrainedIndexUsable(t *testing.T) {
	ix := NewDefault()
	ix.Insert(5, 50)
	ix.Insert(1, 10)
	if v, ok := ix.Get(5); !ok || v != 50 {
		t.Fatal("delta-only Get failed")
	}
	indextest.CheckScans(t, ix.Scan, []uint64{1, 5}, []uint64{0, 1, 5, 10}, []int{1, 2, 3})
	if ix.ModelCount() != 0 {
		t.Fatalf("untrained ModelCount = %d", ix.ModelCount())
	}
}

func TestTombstoneSurvivesRetrain(t *testing.T) {
	ix := NewDefault()
	keys := []uint64{10, 20, 30, 40, 50}
	ix.BulkLoad(keys, []uint64{1, 2, 3, 4, 5})
	ix.Delete(30)
	ix.Retrain()
	if _, ok := ix.Get(30); ok {
		t.Fatal("tombstoned key resurrected by Retrain")
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestModelErrAccumulates(t *testing.T) {
	// On clustered data the learned model must report nonzero error work.
	keys := distgen.UniqueKeys(distgen.NewClustered(5, 20, 1e5), 20000)
	ix := New(64)
	ix.BulkLoad(keys, make([]uint64, len(keys)))
	for _, k := range keys[:5000] {
		ix.Get(k)
	}
	st := ix.Stats()
	if st.Searches != 5000 {
		t.Fatalf("searches = %d", st.Searches)
	}
	if st.Compares == 0 {
		t.Fatal("no compare work recorded")
	}
}

func TestLookupFasterOnEasyData(t *testing.T) {
	// The whole point of an RMI: last-mile work on learnable (sequential)
	// data must be much lower than on adversarial (clustered) data.
	easyKeys := distgen.UniqueKeys(distgen.NewSequential(6, 0, 4), 50000)
	hardKeys := distgen.UniqueKeys(distgen.NewClustered(7, 30, 1e4), 50000)

	probe := func(keys []uint64) uint64 {
		ix := New(512)
		ix.BulkLoad(keys, make([]uint64, len(keys)))
		for _, k := range keys {
			ix.Get(k)
		}
		return ix.Stats().Compares
	}
	easy, hard := probe(easyKeys), probe(hardKeys)
	if easy >= hard {
		t.Fatalf("easy data compares (%d) not below hard data (%d)", easy, hard)
	}
}

// TestWalkMergeCases puts the delta's keys before, between, on and after the
// main array's, with and without tombstones, and checks walk's merged order,
// then that Scan counts that merge from every lo at every limit. Values tell
// the sides apart: main k*10, delta k*100.
func TestWalkMergeCases(t *testing.T) {
	type pair struct{ k, v uint64 }
	top := ^uint64(0) // a variable, so the value products below wrap
	for _, c := range []struct {
		name             string
		main, delta, rip []uint64 // rip: tombstoned main keys
		want             []pair
	}{
		{name: "main only", main: []uint64{10, 20, 30}, want: []pair{{10, 100}, {20, 200}, {30, 300}}},
		{name: "delta only", delta: []uint64{5, 6}, want: []pair{{5, 500}, {6, 600}}},
		{name: "both empty"},
		{name: "before", main: []uint64{10, 20}, delta: []uint64{1, 2}, want: []pair{{1, 100}, {2, 200}, {10, 100}, {20, 200}}},
		{name: "between", main: []uint64{10, 20, 30}, delta: []uint64{15, 16, 25},
			want: []pair{{10, 100}, {15, 1500}, {16, 1600}, {20, 200}, {25, 2500}, {30, 300}}},
		{name: "equal: delta overrides", main: []uint64{10, 20, 30}, delta: []uint64{20}, want: []pair{{10, 100}, {20, 2000}, {30, 300}}},
		{name: "after", main: []uint64{10, 20}, delta: []uint64{21, 40}, want: []pair{{10, 100}, {20, 200}, {21, 2100}, {40, 4000}}},
		{name: "tombstones", main: []uint64{10, 20, 30, 40}, delta: []uint64{5, 25, 50}, rip: []uint64{10, 30, 40},
			want: []pair{{5, 500}, {20, 200}, {25, 2500}, {50, 5000}}},
		{name: "every main key dead", main: []uint64{10, 20}, delta: []uint64{15}, rip: []uint64{10, 20}, want: []pair{{15, 1500}}},
		{name: "tombstone between delta keys", main: []uint64{10, 20, 30, 40}, delta: []uint64{5, 25, 35, 50}, rip: []uint64{30},
			want: []pair{{5, 500}, {10, 100}, {20, 200}, {25, 2500}, {35, 3500}, {40, 400}, {50, 5000}}},
		{name: "max key on both sides", main: []uint64{7, top}, delta: []uint64{top - 1},
			want: []pair{{7, 70}, {top - 1, (top - 1) * 100}, {top, top * 10}}},
	} {
		ix := New(4)
		for _, k := range c.main {
			ix.keys, ix.values = append(ix.keys, k), append(ix.values, k*10)
		}
		for _, k := range c.delta {
			ix.delta.Put(k, k*100)
		}
		for _, k := range c.rip {
			ix.tombstones[k] = struct{}{}
		}
		var got []pair
		ix.walk(func(k, v uint64) { got = append(got, pair{k, v}) })
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: walk = %v, want %v", c.name, got, c.want)
		}
		live := make([]uint64, len(c.want))
		for i, p := range c.want {
			live[i] = p.k
		}
		probes := append([]uint64{0, 1, top}, c.main...)
		probes = append(probes, c.delta...)
		var limits []int
		for l := -1; l <= len(live)+1; l++ {
			limits = append(limits, l)
		}
		indextest.CheckScans(t, ix.Scan, live, probes, limits)
	}
}

// MaxLeafError returns the largest trained last-mile error bound across
// leaves — the distribution-difficulty signal Figure 1a explains.
func (ix *Index) MaxLeafError() int {
	m := 0
	for _, l := range ix.leaves {
		if l.err > m {
			m = l.err
		}
	}
	return m
}
