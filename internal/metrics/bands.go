package metrics

import "fmt"

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

// Interval is one latency band of Figure 1c: the queries completed during
// one time slice, split by SLA outcome. ByLevel is the one count; the
// within/violated split is its Green+Yellow and Orange+Red halves.
type Interval struct {
	Start   int64 // ns since run start
	ByLevel [4]int64
	// OverSLATime is the sum over violated queries of (latency - SLA).
	OverSLATime int64
}

// Completed returns the number of queries completed in the interval.
func (iv Interval) Completed() int64 { return iv.WithinSLA() + iv.Violated() }

// WithinSLA returns the number completed within the SLA threshold.
func (iv Interval) WithinSLA() int64 { return iv.ByLevel[Green] + iv.ByLevel[Yellow] }

// Violated returns the number completed over the SLA threshold.
func (iv Interval) Violated() int64 { return iv.ByLevel[Orange] + iv.ByLevel[Red] }

// BandTracker accumulates Figure 1c latency bands at a fixed interval
// width (the paper suggests 1 s or 10 s intervals).
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
		idx := bt.cur.at(t, bt.width)
		for len(bt.intervals) <= idx {
			bt.intervals = append(bt.intervals, Interval{
				Start: int64(len(bt.intervals)) * bt.width,
			})
		}
		iv := &bt.intervals[idx]
		level := ClassifyLatency(lat[i], bt.sla)
		iv.ByLevel[level]++
		if level > Yellow {
			iv.OverSLATime += lat[i] - bt.sla
		}
	}
}

// timeline returns the per-interval completion counts as a Timeline: the
// band table is the one per-interval record of completions.
func (bt *BandTracker) timeline() *Timeline {
	tl := NewTimeline(bt.width)
	tl.counts = make([]int64, len(bt.intervals))
	for i, iv := range bt.intervals {
		tl.counts[i] = iv.Completed()
	}
	return tl
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
