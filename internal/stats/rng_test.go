package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	var or uint64
	for i := 0; i < 100; i++ {
		or |= r.Uint64()
	}
	if or == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	p := NewRNG(7)
	p.Uint64() // consume the split draw
	same := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("child replays parent: %d/100 matches", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	s := Summarize(xs)
	if math.Abs(s.Mean) > 0.02 {
		t.Fatalf("normal mean = %v", s.Mean)
	}
	if math.Abs(s.Stddev-1) > 0.02 {
		t.Fatalf("normal stddev = %v", s.Stddev)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(6)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if math.Abs(sum/n-1) > 0.03 {
		t.Fatalf("exponential mean = %v, want ~1", sum/n)
	}
}
