package metrics

import (
	"fmt"

	"repro/internal/stats"
)

// BandLevel classifies a completed query's latency relative to the SLA
// threshold. The paper's Figure 1c uses two categories (within SLA /
// violating SLA) and suggests "increasing the number of bands and
// color-coding them appropriately (e.g., green-yellow-orange-red)".
type BandLevel int

// Band levels from best to worst. Green is within half the SLA, Yellow
// within the SLA, Orange within 2x the SLA, Red beyond that.
const (
	Green BandLevel = iota
	Yellow
	Orange
	Red
	numLevels
)

// String returns the color name.
func (b BandLevel) String() string {
	switch b {
	case Green:
		return "green"
	case Yellow:
		return "yellow"
	case Orange:
		return "orange"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("BandLevel(%d)", int(b))
	}
}

// ClassifyLatency maps a latency to its band for the given SLA threshold.
func ClassifyLatency(latency, sla int64) BandLevel {
	switch {
	case latency <= sla/2:
		return Green
	case latency <= sla:
		return Yellow
	case latency <= 2*sla:
		return Orange
	default:
		return Red
	}
}

// Interval is one time slice of a run: the queries completed during it,
// split by SLA outcome (one latency band of Figure 1c), and the operations
// that failed in it. ByLevel is the one completion count; the
// within/violated split is its Green+Yellow and Orange+Red halves.
type Interval struct {
	Start   int64 // ns since run start
	ByLevel [4]int64
	// OverSLATime is the sum over violated queries of (latency - SLA).
	OverSLATime int64
	// Failed counts operations that completed as errors: they produced no
	// latency, so they are in no band.
	Failed int64
}

// Completed returns the number of queries completed in the interval.
func (iv Interval) Completed() int64 { return iv.WithinSLA() + iv.Violated() }

// WithinSLA returns the number completed within the SLA threshold.
func (iv Interval) WithinSLA() int64 { return iv.ByLevel[Green] + iv.ByLevel[Yellow] }

// Violated returns the number completed over the SLA threshold.
func (iv Interval) Violated() int64 { return iv.ByLevel[Orange] + iv.ByLevel[Red] }

// BandTracker is a run's per-interval table at a fixed interval width
// (the paper suggests 1 s or 10 s intervals): the Figure 1c latency bands,
// the Figure 1a throughput series that are their completion counts, and
// the failures the recovery metrics read.
type BandTracker struct {
	sla       int64
	width     int64
	intervals []Interval
	cur       cursor
}

// cursor caches the interval the previous time fell in and its bounds
// [lo, hi), so a time-ordered stream divides only when it crosses into
// another interval; an out-of-order time re-seeks.
type cursor struct {
	idx    int
	lo, hi int64
}

// at returns the interval index of time t (clamped to 0) for the width.
func (c *cursor) at(t, width int64) int {
	t = max(t, 0)
	if t < c.lo || t >= c.hi {
		c.idx = int(t / width)
		c.lo, c.hi = int64(c.idx)*width, int64(c.idx+1)*width
	}
	return c.idx
}

// NewBandTracker returns a tracker with the given SLA threshold and
// interval width, both in nanoseconds.
func NewBandTracker(sla, width int64) *BandTracker {
	if sla <= 0 || width <= 0 {
		panic("metrics: NewBandTracker with non-positive sla or width")
	}
	return &BandTracker{sla: sla, width: width}
}

// SLA returns the tracker's SLA threshold in nanoseconds.
func (bt *BandTracker) SLA() int64 { return bt.sla }

// Width returns the interval width in nanoseconds.
func (bt *BandTracker) Width() int64 { return bt.width }

// Record accounts a query that completed at time t with the given latency.
// Completions may arrive out of interval order (concurrent workers).
func (bt *BandTracker) Record(t, latency int64) {
	bt.recordRun([]int64{t}, []int64{latency})
}

// recordRun accounts queries that completed at times done[i] with
// latencies lat[i]; a time-ordered run divides only when it crosses into
// another interval.
func (bt *BandTracker) recordRun(done, lat []int64) {
	for i, t := range done {
		iv := bt.at(t)
		level := ClassifyLatency(lat[i], bt.sla)
		iv.ByLevel[level]++
		if level > Yellow {
			iv.OverSLATime += lat[i] - bt.sla
		}
	}
}

// at returns the interval time t falls in, growing the table to it.
func (bt *BandTracker) at(t int64) *Interval {
	idx := bt.cur.at(t, bt.width)
	for len(bt.intervals) <= idx {
		bt.intervals = append(bt.intervals, Interval{
			Start: int64(len(bt.intervals)) * bt.width,
		})
	}
	return &bt.intervals[idx]
}

// Intervals returns the recorded bands in time order. The returned slice is
// owned by the tracker; callers must not modify it.
func (bt *BandTracker) Intervals() []Interval { return bt.intervals }

// ViolationRate returns the overall fraction of completed queries that
// violated the SLA.
func (bt *BandTracker) ViolationRate() float64 {
	var done, bad int64
	for _, iv := range bt.intervals {
		done += iv.Completed()
		bad += iv.Violated()
	}
	if done == 0 {
		return 0
	}
	return float64(bad) / float64(done)
}

// ThroughputSeries returns per-interval throughput in queries/second.
func (bt *BandTracker) ThroughputSeries() []float64 {
	out := make([]float64, len(bt.intervals))
	secs := float64(bt.width) / 1e9
	for i, iv := range bt.intervals {
		out[i] = float64(iv.Completed()) / secs
	}
	return out
}

// ThroughputSummary returns the box-plot summary of per-interval throughput
// — exactly what one box of Figure 1a reports for one workload/data
// distribution.
func (bt *BandTracker) ThroughputSummary() stats.Summary {
	return stats.Summarize(bt.ThroughputSeries())
}

// preChange returns the index of the interval changeAt (ns) falls in and
// the mean completions per interval before it: the baseline AdaptationTime
// and DipDepth measure against. The mean is 0 when there is no baseline:
// no interval before the change, none at or after it, or no completion.
func (bt *BandTracker) preChange(changeAt int64) (int, float64) {
	idx := int(changeAt / bt.width)
	if idx <= 0 || idx >= len(bt.intervals) {
		return idx, 0
	}
	var pre float64
	for _, iv := range bt.intervals[:idx] {
		pre += float64(iv.Completed())
	}
	return idx, pre / float64(idx)
}

// AdaptationTime estimates how long after changeAt (ns) the system took to
// return to acceptable throughput: the end of the first interval at or
// after changeAt from which the throughput stays at or above
// recoveryFraction of the pre-change mean throughput for at least
// sustainIntervals consecutive intervals. It returns the recovery delay in
// nanoseconds and true, or 0 and false if the system never recovers within
// the recorded table or there is no pre-change baseline.
//
// This operationalizes the paper's "capture the time a system takes to
// adapt to a new workload".
func (bt *BandTracker) AdaptationTime(changeAt int64, recoveryFraction float64, sustainIntervals int) (int64, bool) {
	sustainIntervals = max(sustainIntervals, 1)
	changeIdx, pre := bt.preChange(changeAt)
	if pre == 0 {
		return 0, false
	}
	need := pre * recoveryFraction
	run := 0
	for i := changeIdx; i < len(bt.intervals); i++ {
		if float64(bt.intervals[i].Completed()) < need {
			run = 0
			continue
		}
		if run++; run >= sustainIntervals {
			recoveredAt := int64(i-sustainIntervals+2) * bt.width
			return max(recoveredAt-changeAt, 0), true
		}
	}
	return 0, false
}

// DipDepth returns the worst relative throughput drop after changeAt
// compared to the pre-change mean: 0 means no drop, 1 means a full stall.
// Returns 0 if there is no baseline or no post-change data.
func (bt *BandTracker) DipDepth(changeAt int64) float64 {
	changeIdx, pre := bt.preChange(changeAt)
	if pre == 0 {
		return 0
	}
	worst := 0.0
	for _, iv := range bt.intervals[changeIdx:] {
		worst = max(worst, 1-float64(iv.Completed())/pre)
	}
	return worst
}

// CalibrateSLA implements the paper's calibration rule: "the SLA threshold
// should ideally be determined based on a baseline system's query latency
// statistics on the same hardware and workload distribution". It returns
// the baseline's q-quantile latency scaled by headroom (e.g. q=0.99,
// headroom=2 gives twice the baseline p99).
func CalibrateSLA(baseline *Histogram, q, headroom float64) int64 {
	v := float64(baseline.Quantile(q)) * headroom
	if v < 1 {
		v = 1
	}
	return int64(v)
}
