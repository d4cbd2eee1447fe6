package metrics

import "repro/internal/stats"

// Timeline tracks per-interval throughput over a run, the raw material for
// Figure 1a box plots ("descriptive statistics" of throughput per
// workload/data distribution) and for adaptation-time detection. It holds
// counts only. A Collector records none: its snapshot's Timeline is a view
// of the band table's per-interval completion counts.
type Timeline struct{ intervalCounts }

// intervalCounts counts events per interval of a fixed width (ns); negative
// times count in the first interval.
type intervalCounts struct {
	width  int64
	counts []int64
}

func newIntervalCounts(width int64) intervalCounts {
	if width <= 0 {
		panic("metrics: non-positive interval width")
	}
	return intervalCounts{width: width}
}

// Width returns the interval width in nanoseconds.
func (ic *intervalCounts) Width() int64 { return ic.width }

// Record counts one event at time t (ns since run start). Events may
// arrive out of interval order (concurrent workers).
func (ic *intervalCounts) Record(t int64) {
	idx := int(max(t, 0) / ic.width)
	for len(ic.counts) <= idx {
		ic.counts = append(ic.counts, 0)
	}
	ic.counts[idx]++
}

// At returns the count of interval idx (0 past the end).
func (ic *intervalCounts) At(idx int) int64 {
	if idx < 0 || idx >= len(ic.counts) {
		return 0
	}
	return ic.counts[idx]
}

// Len returns the number of intervals recorded.
func (ic *intervalCounts) Len() int { return len(ic.counts) }

// NewTimeline returns a timeline with the given interval width in
// nanoseconds.
func NewTimeline(width int64) *Timeline { return &Timeline{newIntervalCounts(width)} }

// ThroughputSeries returns per-interval throughput in queries/second.
func (tl *Timeline) ThroughputSeries() []float64 {
	out := make([]float64, len(tl.counts))
	secs := float64(tl.width) / 1e9
	for i, c := range tl.counts {
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
	if changeIdx <= 0 || changeIdx >= len(tl.counts) {
		return 0, false
	}
	// Pre-change mean throughput (counts/interval suffice, same scale).
	var pre float64
	for _, c := range tl.counts[:changeIdx] {
		pre += float64(c)
	}
	pre /= float64(changeIdx)
	if pre == 0 {
		return 0, false
	}
	need := pre * recoveryFraction
	run := 0
	for i := changeIdx; i < len(tl.counts); i++ {
		if float64(tl.counts[i]) >= need {
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
	if changeIdx <= 0 || changeIdx >= len(tl.counts) {
		return 0
	}
	var pre float64
	for _, c := range tl.counts[:changeIdx] {
		pre += float64(c)
	}
	pre /= float64(changeIdx)
	if pre == 0 {
		return 0
	}
	worst := 0.0
	for _, c := range tl.counts[changeIdx:] {
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
