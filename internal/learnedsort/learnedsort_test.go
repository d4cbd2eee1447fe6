package learnedsort

import (
	"testing"
	"testing/quick"

	"repro/internal/distgen"
	"repro/internal/stats"
)

func TestModelCDFMonotone(t *testing.T) {
	sample := distgen.Keys(distgen.NewLognormal(1, 0, 2, 1e9), 10000)
	m := TrainModel(sample, 256)
	prev := -1.0
	for k := uint64(0); k < 1<<34; k += 1 << 28 {
		c := m.CDF(k)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %d: %v after %v", k, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of range: %v", c)
		}
		prev = c
	}
}

func TestModelCDFEdges(t *testing.T) {
	m := TrainModel([]uint64{100, 200, 300}, 16)
	if m.CDF(50) != 0 {
		t.Fatal("CDF below min")
	}
	if m.CDF(300) != 1 || m.CDF(1000) != 1 {
		t.Fatal("CDF at/above max")
	}
}

func TestModelEmptyAndConstant(t *testing.T) {
	e := TrainModel(nil, 16)
	if e.CDF(5) != 1 && e.CDF(5) != 0 { // defined behaviour: in [0,1]
		t.Fatalf("empty model CDF = %v", e.CDF(5))
	}
	c := TrainModel([]uint64{7, 7, 7}, 16)
	if c.CDF(7) != 1 {
		t.Fatalf("constant model CDF(7) = %v", c.CDF(7))
	}
	if c.CDF(6) != 0 {
		t.Fatalf("constant model CDF(6) = %v", c.CDF(6))
	}
}

func TestSortCorrectAllDistributions(t *testing.T) {
	gens := []distgen.Generator{
		distgen.NewUniform(1, 0, 1<<40),
		distgen.NewNormal(2, 1e12, 1e10),
		distgen.NewLognormal(3, 0, 2, 1e8),
		distgen.NewZipfKeys(4, 1.1, 10000),
		distgen.NewClustered(5, 10, 1e8),
		distgen.NewSegmented(6, 8),
		distgen.NewEmail(7),
	}
	for _, g := range gens {
		keys := distgen.Keys(g, 20000)
		SortAuto(keys, 0)
		if !IsSorted(keys) {
			t.Fatalf("%s: output unsorted", g.Name())
		}
	}
}

func TestSortSmallInputs(t *testing.T) {
	for _, keys := range [][]uint64{nil, {5}, {2, 1}, {3, 3, 3}, {1, 2, 3}} {
		in := append([]uint64(nil), keys...)
		SortAuto(in, 0)
		if !IsSorted(in) {
			t.Fatalf("small input %v unsorted: %v", keys, in)
		}
		if len(in) != len(keys) {
			t.Fatal("length changed")
		}
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	f := func(seed uint64) bool {
		keys := distgen.Keys(distgen.NewZipfKeys(seed, 1.2, 500), 3000) // heavy duplicates
		want := map[uint64]int{}
		for _, k := range keys {
			want[k]++
		}
		SortAuto(keys, 0)
		got := map[uint64]int{}
		for _, k := range keys {
			got[k]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return IsSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGoodModelFewTouchups(t *testing.T) {
	// Uniform data with a trained model: touch-up work should be a small
	// multiple of n, far below the n^2/4 of a naive insertion sort.
	keys := distgen.Keys(distgen.NewUniform(8, 0, 1<<40), 50000)
	res := SortAuto(keys, 8192)
	if !IsSorted(keys) {
		t.Fatal("unsorted")
	}
	if res.TouchupMoves > 10*len(keys) {
		t.Fatalf("touch-up moves %d too high for uniform data", res.TouchupMoves)
	}
}

func TestBadModelStillSorts(t *testing.T) {
	// Train on one distribution, sort a completely different one — the
	// model is wrong, the output must still be sorted.
	model := TrainModel(distgen.Keys(distgen.NewUniform(9, 0, 1000), 1000), 64)
	keys := distgen.Keys(distgen.NewUniform(10, 1<<50, 1<<51), 10000)
	Sort(keys, model)
	if !IsSorted(keys) {
		t.Fatal("bad-model sort produced unsorted output")
	}
}

func TestCollisionFallback(t *testing.T) {
	// All-equal predictions (constant model from constant sample) force
	// the overflow path and potentially the fallback; output stays sorted.
	model := TrainModel([]uint64{42}, 16)
	keys := distgen.Keys(distgen.NewUniform(11, 0, 1<<40), 5000)
	res := Sort(keys, model)
	if !IsSorted(keys) {
		t.Fatal("fallback did not sort")
	}
	if res.Collisions == 0 {
		t.Fatal("expected collisions with a degenerate model")
	}
}

func TestStdSort(t *testing.T) {
	keys := []uint64{3, 1, 2}
	StdSort(keys)
	if keys[0] != 1 || keys[2] != 3 {
		t.Fatal("StdSort failed")
	}
}

func TestShuffledDeterministic(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	a := Shuffled(keys, 7)
	b := Shuffled(keys, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffled not deterministic")
		}
	}
	_ = stats.NewRNG(0)
}

func TestSortedInputCheapest(t *testing.T) {
	sorted := distgen.Sorted(distgen.NewUniform(12, 0, 1<<40), 20000)
	shuffled := Shuffled(sorted, 3)
	resSorted := SortAuto(append([]uint64(nil), sorted...), 0)
	resShuffled := SortAuto(shuffled, 0)
	if !IsSorted(shuffled) {
		t.Fatal("unsorted")
	}
	// Model quality is identical, so both runs must stay near-linear:
	// a handful of touch-up moves per element, nowhere near the n^2/4 of
	// a naive insertion sort.
	n := len(shuffled)
	if resSorted.TouchupMoves > 2*n || resShuffled.TouchupMoves > 2*n {
		t.Fatalf("touch-up moves not near-linear: sorted=%d shuffled=%d n=%d",
			resSorted.TouchupMoves, resShuffled.TouchupMoves, n)
	}
}

func BenchmarkLearnedSortUniform(b *testing.B) {
	src := distgen.Keys(distgen.NewUniform(1, 0, 1<<40), 100000)
	buf := make([]uint64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		SortAuto(buf, 0)
	}
}

func BenchmarkStdSortUniform(b *testing.B) {
	src := distgen.Keys(distgen.NewUniform(1, 0, 1<<40), 100000)
	buf := make([]uint64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		StdSort(buf)
	}
}

// Shuffled returns a deterministically shuffled copy of keys.
func Shuffled(keys []uint64, seed uint64) []uint64 {
	out := append([]uint64(nil), keys...)
	r := stats.NewRNG(seed)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
