package stats

import (
	"fmt"
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
// Next here is the table-free reference, refScrambled, so the head table
// that the larger fills build answers to it too.
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
				want := NewZipf(NewRNG(seed), theta, universe)
				out := make([]uint64, size)
				got.Fill(out)
				for i, k := range out {
					if w := refScrambled(want); k != w {
						t.Fatalf("procs %d theta %v size %d: rank %d is %d, Next gives %d", procs, theta, size, i, k, w)
					}
				}
				if g, w := got.z.rng.Uint64(), want.rng.Uint64(); g != w {
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

// refScrambled is ScrambledZipf.Next without the head table: a Zipf draw,
// then the scramble.
func refScrambled(z *Zipf) uint64 { return fnvHash64(z.Next()) % z.n }

// TestScrambledZipfHeadExact: each pure head bucket holds what try gives
// every raw in it (checked at its ends, next to them, in its middle, and on
// a million random raws over the pure buckets), and with the table built
// part-way, interleaved Next and Fill calls draw the table-free stream and
// leave the RNG where it leaves it.
func TestScrambledZipfHeadExact(t *testing.T) {
	const mask = 1<<headShift - 1
	for _, theta := range []float64{0.5, 0.9, 0.99, 1.1, 1.5, 3.0} {
		for _, n := range []uint64{1, 3, 1000, 50_000, 1 << 22, 1 << 30} {
			t.Run(fmt.Sprintf("theta=%v/n=%d", theta, n), func(t *testing.T) {
				t.Parallel()
				s := NewScrambledZipf(NewRNG(n), theta, n)
				head := s.buildHead()
				var pure []uint64
				for b, r := range head {
					if r != headImpure {
						pure = append(pure, uint64(b))
					}
				}
				t.Logf("%d of %d buckets pure", len(pure), len(head))
				check := func(raw uint64) {
					k, ok := s.z.try(raw)
					if r := head[raw>>headShift]; !ok || fnvHash64(k)%n != r {
						t.Fatalf("raw %#x: table holds %d, try gives %d (accepted %v)", raw, r, fnvHash64(k)%n, ok)
					}
				}
				for _, b := range pure {
					first := b << headShift
					for _, low := range []uint64{0, 1, mask / 2, mask - 1, mask} {
						check(first | low)
					}
				}
				if len(pure) > 0 {
					rng := NewRNG(n)
					for i := 0; i < 1_000_000; i++ {
						check(pure[rng.Uint64()%uint64(len(pure))]<<headShift | rng.Uint64()&mask)
					}
				}

				// The table is built by the Next that makes the 2^15th draw;
				// a parallel Fill, more Nexts and a serial Fill then use it.
				got := NewScrambledZipf(NewRNG(n+1), theta, n)
				want := NewZipf(NewRNG(n+1), theta, n)
				for _, step := range []struct{ next, fill int }{{10, fillParMin - 20}, {20, 3*fillParMin + 7}, {1000, 63}} {
					for i := 0; i < step.next; i++ {
						if g, w := got.Next(), refScrambled(want); g != w {
							t.Fatalf("Next gives %d, reference %d", g, w)
						}
					}
					out := make([]uint64, step.fill)
					got.Fill(out)
					for i, g := range out {
						if w := refScrambled(want); g != w {
							t.Fatalf("Fill rank %d is %d, reference %d", i, g, w)
						}
					}
				}
				if got.head == nil {
					t.Fatalf("no head table after %d draws", got.served)
				}
				if *got.z.rng != *want.rng {
					t.Fatal("RNG state differs from the reference's")
				}
			})
		}
	}
}

// FuzzZipfHead: wherever the head table marks raw's bucket pure, try
// accepts raw and yields the rank the bucket holds.
func FuzzZipfHead(f *testing.F) {
	f.Add(1.1, uint64(1<<22), uint64(0xFFFF_0123_4567_89AB))
	f.Add(0.5, uint64(1000), uint64(1)<<63)
	f.Add(3.0, uint64(3), ^uint64(0))
	f.Fuzz(func(t *testing.T, theta float64, n, raw uint64) {
		theta = min(math.Abs(theta), 8)
		if !(theta > 0) {
			t.Skip("theta must be positive")
		}
		s := NewScrambledZipf(NewRNG(1), theta, max(n, 1))
		r := s.buildHead()[raw>>headShift]
		if r == headImpure {
			return
		}
		if k, ok := s.z.try(raw); !ok || fnvHash64(k)%s.n != r {
			t.Fatalf("theta %v n %d raw %#x: table holds %d, try gives %d (accepted %v)", theta, s.n, raw, r, fnvHash64(k)%s.n, ok)
		}
	})
}
