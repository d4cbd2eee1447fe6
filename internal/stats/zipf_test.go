package stats

import (
	"math"
	"runtime"
	"testing"
)

func TestZipfBounds(t *testing.T) {
	r := NewRNG(1)
	z := NewZipf(r, 0.99, 1000)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Rank 0 must be the most frequent and frequency must broadly decay.
	r := NewRNG(2)
	z := NewZipf(r, 1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 500000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Fatalf("Zipf frequencies not decaying: c0=%d c10=%d c90=%d",
			counts[0], counts[10], counts[90])
	}
}

func TestZipfMatchesAnalyticHead(t *testing.T) {
	// For theta=1 the probability of rank 0 is 1/H_n. Check within 10%.
	const n = 50
	r := NewRNG(3)
	z := NewZipf(r, 1.0, n)
	var hn float64
	for k := 1; k <= n; k++ {
		hn += 1 / float64(k)
	}
	want := 1 / hn
	hits := 0
	const trials = 300000
	for i := 0; i < trials; i++ {
		if z.Next() == 0 {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("P(rank 0) = %v, analytic %v", got, want)
	}
}

func TestZipfHighSkewConcentrates(t *testing.T) {
	r := NewRNG(4)
	z := NewZipf(r, 2.0, 10000)
	top10 := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if z.Next() < 10 {
			top10++
		}
	}
	if float64(top10)/trials < 0.8 {
		t.Fatalf("theta=2 top-10 mass = %v, want > 0.8", float64(top10)/trials)
	}
}

func TestZipfLowSkewSpreads(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 0.2, 1000)
	seen := make(map[uint64]bool)
	for i := 0; i < 50000; i++ {
		seen[z.Next()] = true
	}
	if len(seen) < 500 {
		t.Fatalf("theta=0.2 visited only %d/1000 ranks", len(seen))
	}
}

func TestZipfSingleElement(t *testing.T) {
	z := NewZipf(NewRNG(6), 0.99, 1)
	for i := 0; i < 100; i++ {
		if z.Next() != 0 {
			t.Fatal("n=1 Zipf must always return 0")
		}
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	r := NewRNG(7)
	s := NewScrambledZipf(r, 0.99, 10000)
	counts := make(map[uint64]int)
	for i := 0; i < 200000; i++ {
		counts[s.Next()]++
	}
	// Find the two hottest keys; they must not be adjacent (scrambling).
	var h1, h2 uint64
	var c1, c2 int
	for k, c := range counts {
		if c > c1 {
			h2, c2 = h1, c1
			h1, c1 = k, c
		} else if c > c2 {
			h2, c2 = k, c
		}
	}
	d := int64(h1) - int64(h2)
	if d < 0 {
		d = -d
	}
	if d <= 1 {
		t.Fatalf("scrambled hot keys adjacent: %d and %d", h1, h2)
	}
}

func TestZipfPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-n":     func() { NewZipf(NewRNG(1), 1, 0) },
		"zero-theta": func() { NewZipf(NewRNG(1), 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestScrambledZipfFillMatchesNext: Fill yields what len(out) calls of Next
// yield and leaves the RNG where they leave it, split over cores or not.
// Every fill the cores share passes through rejected rounds (counted by
// replaying its raw outputs through try), so the in-order compaction of the
// accepted ranks is exercised.
func TestScrambledZipfFillMatchesNext(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const universe = 1000
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, theta := range []float64{0.5, 0.99, 1.1, 3.0} {
			for _, size := range []int{1, 63, 1<<15 - 1, 1 << 15, 3<<15 + 7} {
				seed := uint64(size)
				got := NewScrambledZipf(NewRNG(seed), theta, universe)
				want := NewScrambledZipf(NewRNG(seed), theta, universe)
				out := make([]uint64, size)
				got.Fill(out)
				for i, k := range out {
					if w := want.Next(); k != w {
						t.Fatalf("procs %d theta %v size %d: rank %d is %d, Next gives %d", procs, theta, size, i, k, w)
					}
				}
				if g, w := got.z.rng.Uint64(), want.z.rng.Uint64(); g != w {
					t.Fatalf("procs %d theta %v size %d: RNG after Fill gives %d, after Next %d", procs, theta, size, g, w)
				}

				z := NewZipf(NewRNG(seed), theta, universe)
				rejected := 0
				for accepted := 0; accepted < size; {
					if _, ok := z.try(z.rng.Uint64()); ok {
						accepted++
					} else {
						rejected++
					}
				}
				if size >= fillParMin && rejected == 0 {
					t.Fatalf("theta %v size %d: no round rejected, the compaction goes untested", theta, size)
				}
			}
		}
	}
}
