package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("quartiles = %v, %v", s.P25, s.P75)
	}
	if s.Mean != 3 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.P25 != 7 || s.Median != 7 || s.P75 != 7 || s.Mean != 7 || s.Stddev != 0 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestSummarizeOutliers(t *testing.T) {
	xs := []float64{10, 11, 12, 13, 14, 15, 16, 100}
	s := Summarize(xs)
	if s.OutlierCount != 1 {
		t.Fatalf("outliers = %d, want 1 (summary %+v)", s.OutlierCount, s)
	}
	if s.WhiskerHigh == 100 {
		t.Fatal("whisker must exclude the outlier")
	}
	if s.Max != 100 {
		t.Fatal("max must include the outlier")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummaryInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		r := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		s := Summarize(xs)
		ordered := s.Min <= s.P25 && s.P25 <= s.Median &&
			s.Median <= s.P75 && s.P75 <= s.Max
		whisk := s.WhiskerLow >= s.Min && s.WhiskerHigh <= s.Max &&
			s.WhiskerLow <= s.WhiskerHigh
		return ordered && whisk && s.N == n &&
			s.Mean >= s.Min && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The quantile tests pin quantileSorted, the interpolation between closest
// ranks behind Summarize's quartiles.

func TestQuantileEdges(t *testing.T) {
	xs := []float64{1, 3, 5, 9}
	if got := quantileSorted(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := quantileSorted(xs, 1); got != 9 {
		t.Fatalf("q1 = %v", got)
	}
	if s := Summarize([]float64{7}); s.P25 != 7 || s.Median != 7 || s.P75 != 7 {
		t.Fatalf("singleton quartiles %v %v %v", s.P25, s.Median, s.P75)
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	for _, c := range []struct {
		xs            []float64
		p25, med, p75 float64
	}{
		{[]float64{0, 10}, 2.5, 5, 7.5},
		{[]float64{5, 1, 9, 3}, 2.5, 4, 6},
	} {
		s := Summarize(c.xs)
		if s.P25 != c.p25 || s.Median != c.med || s.P75 != c.p75 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, s.P25, s.Median, s.P75, c.p25, c.med, c.p75)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := quantileSorted(xs, q)
			if v < prev || v < xs[0] || v > xs[len(xs)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("mean of {2,4}")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean must be NaN")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	l := FitLinear(xs, ys)
	if math.Abs(l.Slope-2) > 1e-12 || math.Abs(l.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", l)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	l := FitLinear([]float64{5, 5, 5}, []float64{1, 2, 3})
	if l.Slope != 0 || l.Intercept != 2 {
		t.Fatalf("degenerate fit = %+v", l)
	}
	if z := (Linear{}); z.Predict(10) != 0 {
		t.Fatal("zero line must predict 0")
	}
}

func TestFitLinearKeysMatchesGeneric(t *testing.T) {
	keys := []uint64{10, 20, 35, 70, 100, 160}
	xs := make([]float64, len(keys))
	ys := make([]float64, len(keys))
	for i, k := range keys {
		xs[i] = float64(k)
		ys[i] = float64(i)
	}
	a := FitLinearKeys(keys)
	b := FitLinear(xs, ys)
	if math.Abs(a.Slope-b.Slope) > 1e-9 || math.Abs(a.Intercept-b.Intercept) > 1e-9 {
		t.Fatalf("FitLinearKeys %+v != FitLinear %+v", a, b)
	}
}

func TestPredictClamped(t *testing.T) {
	l := Linear{Slope: 1, Intercept: 0}
	if l.PredictClamped(-5, 10) != 0 {
		t.Fatal("low clamp")
	}
	if l.PredictClamped(100, 10) != 9 {
		t.Fatal("high clamp")
	}
	if l.PredictClamped(4.7, 10) != 4 {
		t.Fatal("interior truncation")
	}
	nan := Linear{Slope: math.NaN()}
	if nan.PredictClamped(1, 10) != 0 {
		t.Fatal("NaN must clamp to 0")
	}
}

func TestFitLinearKeysResidualsSmallOnLinearData(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		base := r.Uint64() % (1 << 40)
		step := r.Uint64()%1000 + 1
		keys := make([]uint64, 256)
		for i := range keys {
			keys[i] = base + uint64(i)*step
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		l := FitLinearKeys(keys)
		for i, k := range keys {
			if math.Abs(l.Predict(float64(k))-float64(i)) > 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
