package metrics

import (
	"sort"
)

// CumCurve is the cumulative-queries-completed-over-time curve of Figure 1b.
// The paper: "the slope of the curve is the throughput, and it is easy to
// see the impact of a change". It keeps one point per completion, in
// non-decreasing time order (Add enforces it); point i is (times[i], i+1),
// so only the times are stored.
type CumCurve struct {
	times []int64 // completion timestamps, ns since run start
}

// newCumCurve returns an empty curve with room for n points.
func newCumCurve(n int) *CumCurve {
	return &CumCurve{times: make([]int64, 0, n)}
}

// Add records one more completion at time t (ns since run start). Calls
// must have non-decreasing t; a regression panics since it indicates a
// measurement bug.
func (c *CumCurve) Add(t int64) {
	if n := len(c.times); n > 0 && t < c.times[n-1] {
		panic("metrics: CumCurve.Add with decreasing time")
	}
	c.times = append(c.times, t)
}

// Len returns the number of recorded points.
func (c *CumCurve) Len() int { return len(c.times) }

// Total returns the final cumulative count (0 when empty).
func (c *CumCurve) Total() int64 { return int64(len(c.times)) }

// Duration returns the time of the last point (0 when empty).
func (c *CumCurve) Duration() int64 {
	if len(c.times) == 0 {
		return 0
	}
	return c.times[len(c.times)-1]
}

// At returns the cumulative count at time t (step interpolation: the count
// of the latest point with time <= t).
func (c *CumCurve) At(t int64) int64 {
	return int64(sort.Search(len(c.times), func(i int) bool { return c.times[i] > t }))
}

// Throughput returns the overall average throughput in queries/second.
func (c *CumCurve) Throughput() float64 {
	d := c.Duration()
	if d == 0 {
		return 0
	}
	return float64(c.Total()) / (float64(d) / 1e9)
}

// area returns the integral of the step curve from 0 to horizon, in
// query·ns units.
func (c *CumCurve) area(horizon int64) float64 {
	var total float64
	var prevT, prevC int64
	for i := range c.times {
		t := c.times[i]
		if t > horizon {
			t = horizon
		}
		total += float64(prevC) * float64(t-prevT)
		prevT, prevC = t, int64(i+1)
		if c.times[i] >= horizon {
			return total
		}
	}
	total += float64(prevC) * float64(horizon-prevT)
	return total
}

// AreaVsIdeal is the paper's single-value derivation from Figure 1b: the
// area difference between an ideal system that completes the same total
// work at constant throughput over the same duration and the measured
// curve, normalized by the ideal area. 0 means the system tracked the
// ideal perfectly; positive values mean the system lagged (slow start,
// stalls) and caught up later; the magnitude is the fraction of ideal
// query·time lost. Range is [-1, 1] in practice.
func (c *CumCurve) AreaVsIdeal() float64 {
	d := c.Duration()
	total := c.Total()
	if d == 0 || total == 0 {
		return 0
	}
	idealArea := 0.5 * float64(total) * float64(d) // triangle under the constant-slope line
	measured := c.area(d)
	if idealArea == 0 {
		return 0
	}
	return (idealArea - measured) / idealArea
}

// AreaBetween compares two systems over the common horizon (the shorter of
// the two durations), returning (area(a) - area(b)) normalized by the
// larger of the two areas: positive means a completed more query·time than
// b (a is ahead), negative means b is ahead. This is the paper's
// "area difference between the two systems" single-value comparison.
func AreaBetween(a, b *CumCurve) float64 {
	h := a.Duration()
	if bd := b.Duration(); bd < h {
		h = bd
	}
	if h == 0 {
		return 0
	}
	aa, ab := a.area(h), b.area(h)
	den := aa
	if ab > den {
		den = ab
	}
	if den == 0 {
		return 0
	}
	return (aa - ab) / den
}

// Slope returns the local throughput (queries/second) over the window
// [t-window, t].
func (c *CumCurve) Slope(t, window int64) float64 {
	if window <= 0 {
		return 0
	}
	lo := t - window
	if lo < 0 {
		lo = 0
	}
	dq := c.At(t) - c.At(lo)
	return float64(dq) / (float64(t-lo) / 1e9)
}

// Sample invokes f, in order, for at most n evenly spaced points of the
// curve, the first and last included, for plotting; for every point when
// n <= 0 or the curve is no longer than n.
func (c *CumCurve) Sample(n int, f func(t int64, count int64)) {
	if n <= 0 || len(c.times) <= n {
		c.Points(f)
		return
	}
	stride := float64(len(c.times)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx := int(float64(i) * stride)
		f(c.times[idx], int64(idx+1))
	}
}

// Points invokes f for each (time, cumulative count) pair in order.
func (c *CumCurve) Points(f func(t int64, count int64)) {
	for i, t := range c.times {
		f(t, int64(i+1))
	}
}
