package metrics

import "repro/internal/stats"

// Timeline tracks per-interval throughput and latency over a run, the raw
// material for Figure 1a box plots ("descriptive statistics" of throughput
// per workload/data distribution) and for adaptation-time detection.
type Timeline struct {
	width     int64
	completed []int64      // per-interval completion counts
	lat       []*Histogram // per-interval latency histograms (lazy)
}

// NewTimeline returns a timeline with the given interval width in
// nanoseconds.
func NewTimeline(width int64) *Timeline {
	if width <= 0 {
		panic("metrics: NewTimeline with non-positive width")
	}
	return &Timeline{width: width}
}

// Width returns the interval width in nanoseconds.
func (tl *Timeline) Width() int64 { return tl.width }

// Record accounts a completion at time t with the given latency.
func (tl *Timeline) Record(t, latency int64) {
	if t < 0 {
		t = 0
	}
	idx := int(t / tl.width)
	for len(tl.completed) <= idx {
		tl.completed = append(tl.completed, 0)
		tl.lat = append(tl.lat, nil)
	}
	tl.completed[idx]++
	if tl.lat[idx] == nil {
		tl.lat[idx] = NewHistogram()
	}
	tl.lat[idx].Record(latency)
}

// Intervals returns the number of recorded intervals.
func (tl *Timeline) Intervals() int { return len(tl.completed) }

// ThroughputSeries returns per-interval throughput in queries/second.
func (tl *Timeline) ThroughputSeries() []float64 {
	out := make([]float64, len(tl.completed))
	secs := float64(tl.width) / 1e9
	for i, c := range tl.completed {
		out[i] = float64(c) / secs
	}
	return out
}

// ThroughputSummary returns the box-plot summary of per-interval throughput
// — exactly what one box of Figure 1a reports for one workload/data
// distribution.
func (tl *Timeline) ThroughputSummary() stats.Summary {
	return stats.Summarize(tl.ThroughputSeries())
}

// MergedLatency returns one histogram merging every interval.
func (tl *Timeline) MergedLatency() *Histogram {
	m := NewHistogram()
	for _, h := range tl.lat {
		if h != nil {
			m.Merge(h)
		}
	}
	return m
}

// AdaptationTime estimates how long after changeAt (ns) the system took to
// return to acceptable throughput: the end of the first interval at or
// after changeAt from which the throughput stays at or above
// recoveryFraction of the pre-change mean throughput for at least
// sustainIntervals consecutive intervals. It returns the recovery delay in
// nanoseconds and true, or 0 and false if the system never recovers within
// the recorded timeline or there is no pre-change baseline.
//
// This operationalizes the paper's "capture the time a system takes to
// adapt to a new workload".
func (tl *Timeline) AdaptationTime(changeAt int64, recoveryFraction float64, sustainIntervals int) (int64, bool) {
	if sustainIntervals < 1 {
		sustainIntervals = 1
	}
	changeIdx := int(changeAt / tl.width)
	if changeIdx <= 0 || changeIdx >= len(tl.completed) {
		return 0, false
	}
	// Pre-change mean throughput (counts/interval suffice, same scale).
	var pre float64
	for _, c := range tl.completed[:changeIdx] {
		pre += float64(c)
	}
	pre /= float64(changeIdx)
	if pre == 0 {
		return 0, false
	}
	need := pre * recoveryFraction
	run := 0
	for i := changeIdx; i < len(tl.completed); i++ {
		if float64(tl.completed[i]) >= need {
			run++
			if run >= sustainIntervals {
				recoveredAt := int64(i-sustainIntervals+2) * tl.width
				d := recoveredAt - changeAt
				if d < 0 {
					d = 0
				}
				return d, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// DipDepth returns the worst relative throughput drop after changeAt
// compared to the pre-change mean: 0 means no drop, 1 means a full stall.
// Returns 0 if there is no baseline or no post-change data.
func (tl *Timeline) DipDepth(changeAt int64) float64 {
	changeIdx := int(changeAt / tl.width)
	if changeIdx <= 0 || changeIdx >= len(tl.completed) {
		return 0
	}
	var pre float64
	for _, c := range tl.completed[:changeIdx] {
		pre += float64(c)
	}
	pre /= float64(changeIdx)
	if pre == 0 {
		return 0
	}
	worst := 0.0
	for _, c := range tl.completed[changeIdx:] {
		drop := 1 - float64(c)/pre
		if drop > worst {
			worst = drop
		}
	}
	if worst > 1 {
		worst = 1
	}
	return worst
}
