package stats

import (
	"math"
	"sort"
)

// Summary holds the descriptive statistics that back a box plot: the
// five-number summary plus mean, standard deviation, whiskers (Tukey 1.5 IQR
// fences clamped to observed data), and outlier count. It is the unit of
// reporting for the paper's Figure 1a ("report descriptive statistics, e.g.
// using a box plot").
type Summary struct {
	N            int
	Mean         float64
	Stddev       float64
	Min          float64
	P25          float64
	Median       float64
	P75          float64
	Max          float64
	WhiskerLow   float64 // lowest observation >= P25 - 1.5*IQR
	WhiskerHigh  float64 // highest observation <= P75 + 1.5*IQR
	OutlierCount int     // observations outside the whiskers
}

// IQR returns the interquartile range.
func (s Summary) IQR() float64 { return s.P75 - s.P25 }

// Summarize computes a Summary over the sample. It sorts a copy; the input
// slice is not modified. An empty sample yields a zero Summary.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	var s Summary
	s.N = len(xs)
	s.Min = xs[0]
	s.Max = xs[len(xs)-1]
	s.P25 = quantileSorted(xs, 0.25)
	s.Median = quantileSorted(xs, 0.5)
	s.P75 = quantileSorted(xs, 0.75)

	var mean, m2 float64
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	s.Mean = mean
	if s.N > 1 {
		s.Stddev = math.Sqrt(m2 / float64(s.N-1))
	}

	loFence := s.P25 - 1.5*s.IQR()
	hiFence := s.P75 + 1.5*s.IQR()
	s.WhiskerLow = s.Max
	s.WhiskerHigh = s.Min
	for _, x := range xs {
		if x < loFence || x > hiFence {
			s.OutlierCount++
			continue
		}
		if x < s.WhiskerLow {
			s.WhiskerLow = x
		}
		if x > s.WhiskerHigh {
			s.WhiskerHigh = x
		}
	}
	if s.OutlierCount == s.N { // degenerate: everything is an "outlier"
		s.WhiskerLow, s.WhiskerHigh = s.Min, s.Max
	}
	return s
}

// quantileSorted returns the q-quantile (0 <= q <= 1) of the sorted,
// non-empty xs, interpolating linearly between closest ranks.
func quantileSorted(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range sample {
		sum += x
	}
	return sum / float64(len(sample))
}
