package search

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refLowerBound is the sort.Search formulation every kernel is pinned to.
func refLowerBound(a []uint64, key uint64) int {
	return sort.Search(len(a), func(i int) bool { return a[i] >= key })
}

func refUpperBound(a []uint64, key uint64) int {
	return sort.Search(len(a), func(i int) bool { return a[i] > key })
}

// sortedCase generates a random sorted slice with duplicates: small strides
// keep duplicate runs common, and the offset exercises non-zero minima.
func sortedCase(rng *rand.Rand, n int) []uint64 {
	a := make([]uint64, n)
	cur := rng.Uint64() % 1000
	for i := range a {
		a[i] = cur
		cur += rng.Uint64() % 3 // 1/3 chance of duplicate
	}
	return a
}

// probeKeys returns the interesting keys for a sorted slice: every element,
// every element ±1, and the extremes of the domain.
func probeKeys(a []uint64) []uint64 {
	keys := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1}
	for _, v := range a {
		keys = append(keys, v)
		if v > 0 {
			keys = append(keys, v-1)
		}
		keys = append(keys, v+1)
	}
	return keys
}

func TestLowerBoundEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 31, 32, 100, 1000} {
		for trial := 0; trial < 20; trial++ {
			a := sortedCase(rng, n)
			for _, k := range probeKeys(a) {
				if got, want := LowerBound(a, k), refLowerBound(a, k); got != want {
					t.Fatalf("LowerBound(%v, %d) = %d, want %d", a, k, got, want)
				}
				if got, want := UpperBound(a, k), refUpperBound(a, k); got != want {
					t.Fatalf("UpperBound(%v, %d) = %d, want %d", a, k, got, want)
				}
			}
		}
	}
}

func TestLowerBoundAllEqual(t *testing.T) {
	a := []uint64{5, 5, 5, 5, 5, 5, 5}
	if got := LowerBound(a, 5); got != 0 {
		t.Fatalf("LowerBound all-equal = %d, want 0", got)
	}
	if got := UpperBound(a, 5); got != len(a) {
		t.Fatalf("UpperBound all-equal = %d, want %d", got, len(a))
	}
	if got := LowerBound(a, 4); got != 0 {
		t.Fatalf("LowerBound below = %d, want 0", got)
	}
	if got := LowerBound(a, 6); got != len(a) {
		t.Fatalf("LowerBound above = %d, want %d", got, len(a))
	}
}

func TestLowerBoundRangeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a := sortedCase(rng, 200)
		for sub := 0; sub < 20; sub++ {
			lo := rng.Intn(len(a) + 1)
			hi := lo + rng.Intn(len(a)+1-lo)
			for _, k := range []uint64{a[0], a[len(a)-1], a[(lo+hi)/2%len(a)], 0, ^uint64(0)} {
				want := lo + refLowerBound(a[lo:hi], k)
				if got := LowerBoundRange(a, lo, hi, k); got != want {
					t.Fatalf("LowerBoundRange(lo=%d, hi=%d, %d) = %d, want %d", lo, hi, k, got, want)
				}
			}
		}
	}
}

// FuzzLowerBound cross-checks both bounds against sort.Search on arbitrary
// sorted inputs derived from fuzz bytes.
func FuzzLowerBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(3))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0, 0, 0, 0}, uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, key uint64) {
		a := make([]uint64, 0, len(raw))
		var cur uint64
		for _, b := range raw {
			cur += uint64(b) // deltas >= 0 keep it sorted, zeros make dups
			a = append(a, cur)
		}
		if got, want := LowerBound(a, key), refLowerBound(a, key); got != want {
			t.Fatalf("LowerBound(%v, %d) = %d, want %d", a, key, got, want)
		}
		if got, want := UpperBound(a, key), refUpperBound(a, key); got != want {
			t.Fatalf("UpperBound(%v, %d) = %d, want %d", a, key, got, want)
		}
	})
}

// --- Benchmarks: the inline kernels vs the sort.Search formulation --------

var sink int

func benchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	a := make([]uint64, n)
	cur := uint64(0)
	for i := range a {
		cur += 1 + rng.Uint64()%16
		a[i] = cur
	}
	return a
}

func BenchmarkLowerBound(b *testing.B) {
	a := benchKeys(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += LowerBound(a, a[(i*16777619)%len(a)])
	}
	sink = s
}

func BenchmarkSortSearch(b *testing.B) {
	a := benchKeys(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		k := a[(i*16777619)%len(a)]
		s += sort.Search(len(a), func(j int) bool { return a[j] >= k })
	}
	sink = s
}

// BenchmarkBoundedWindow compares the last-mile search inside a learned
// index's error window — the inline halving loop against sort.Search —
// across the window sizes that matter, from tight models (64) to coarse
// models at 100M+ keys (65536).
func BenchmarkBoundedWindow(b *testing.B) {
	a := benchKeys(1 << 20)
	for _, win := range []int{64, 256, 4096, 65536} {
		win := win
		pos := func(i int) (int, int, uint64) {
			p := (i * 16777619) % len(a)
			lo, hi := p-win/2, p+win/2
			if lo < 0 {
				lo = 0
			}
			if hi > len(a) {
				hi = len(a)
			}
			return lo, hi, a[p]
		}
		b.Run(fmt.Sprintf("win=%d/sort.Search", win), func(b *testing.B) {
			b.ReportAllocs()
			s := 0
			for i := 0; i < b.N; i++ {
				lo, hi, k := pos(i)
				s += lo + sort.Search(hi-lo, func(j int) bool { return a[lo+j] >= k })
			}
			sink = s
		})
		b.Run(fmt.Sprintf("win=%d/loop", win), func(b *testing.B) {
			b.ReportAllocs()
			s := 0
			for i := 0; i < b.N; i++ {
				lo, hi, k := pos(i)
				s += LowerBoundRange(a, lo, hi, k)
			}
			sink = s
		})
	}
}
