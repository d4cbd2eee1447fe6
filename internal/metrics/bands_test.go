package metrics

import (
	"sort"
	"testing"
)

func TestClassifyLatency(t *testing.T) {
	const sla = 1000
	cases := []struct {
		lat  int64
		want BandLevel
	}{
		{100, Green}, {500, Green}, {501, Yellow}, {1000, Yellow},
		{1001, Orange}, {2000, Orange}, {2001, Red}, {1 << 40, Red},
	}
	for _, c := range cases {
		if got := ClassifyLatency(c.lat, sla); got != c.want {
			t.Fatalf("ClassifyLatency(%d) = %v, want %v", c.lat, got, c.want)
		}
	}
}

func TestBandLevelString(t *testing.T) {
	names := map[BandLevel]string{Green: "green", Yellow: "yellow", Orange: "orange", Red: "red"}
	for lvl, want := range names {
		if lvl.String() != want {
			t.Fatalf("%d.String() = %q", lvl, lvl.String())
		}
	}
	if BandLevel(9).String() == "" {
		t.Fatal("unknown level must still stringify")
	}
}

func TestBandTrackerIntervals(t *testing.T) {
	bt := NewBandTracker(1000, 1e9) // 1µs SLA, 1s intervals
	bt.Record(5e8, 500)             // interval 0, within
	bt.Record(15e8, 1500)           // interval 1, violated
	bt.Record(15e8, 900)            // interval 1, within
	ivs := bt.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].Completed() != 1 || ivs[0].WithinSLA() != 1 || ivs[0].Violated() != 0 {
		t.Fatalf("interval 0 = %+v", ivs[0])
	}
	if ivs[1].Completed() != 2 || ivs[1].WithinSLA() != 1 || ivs[1].Violated() != 1 {
		t.Fatalf("interval 1 = %+v", ivs[1])
	}
	if ivs[1].OverSLATime != 500 {
		t.Fatalf("over-SLA time = %d", ivs[1].OverSLATime)
	}
	if ivs[1].Start != 1e9 {
		t.Fatalf("interval 1 start = %d", ivs[1].Start)
	}
}

func TestBandTrackerGapsFilled(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	bt.Record(0, 100)
	bt.Record(5e9, 100) // skips intervals 1-4
	ivs := bt.Intervals()
	if len(ivs) != 6 {
		t.Fatalf("intervals = %d, want 6", len(ivs))
	}
	for i := 1; i <= 4; i++ {
		if ivs[i].Completed() != 0 {
			t.Fatalf("gap interval %d non-empty", i)
		}
	}
}

func TestBandTrackerOutOfOrder(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	bt.Record(5e9, 100)
	bt.Record(1e9, 2000) // earlier completion arriving late
	ivs := bt.Intervals()
	if ivs[1].Violated() != 1 {
		t.Fatal("out-of-order record lost")
	}
}

func TestBandTrackerOutOfOrderEquivalence(t *testing.T) {
	// Concurrent workers deliver completions in arbitrary order; the
	// tracker must produce the same bands as a time-sorted stream.
	const sla, width = 1000, 1_000_000
	type comp struct{ t, lat int64 }
	var comps []comp
	// Deterministic pseudo-random completion stream spanning many
	// intervals, with latencies straddling every band boundary.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 5000; i++ {
		comps = append(comps, comp{
			t:   int64(next() % (50 * width)),
			lat: int64(next() % (4 * sla)),
		})
	}

	sorted := NewBandTracker(sla, width)
	ordered := append([]comp(nil), comps...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].t < ordered[j].t })
	for _, c := range ordered {
		sorted.Record(c.t, c.lat)
	}
	shuffled := NewBandTracker(sla, width)
	for _, c := range comps {
		shuffled.Record(c.t, c.lat)
	}

	a, b := sorted.Intervals(), shuffled.Intervals()
	if len(a) != len(b) {
		t.Fatalf("interval counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if sorted.ViolationRate() != shuffled.ViolationRate() {
		t.Fatal("violation rates differ")
	}
}

func TestBandTrackerNegativeTimeClamped(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	bt.Record(-50, 100)
	if bt.Intervals()[0].Completed() != 1 {
		t.Fatal("negative time not clamped into interval 0")
	}
}

func TestViolationRate(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	if bt.ViolationRate() != 0 {
		t.Fatal("empty violation rate")
	}
	for i := 0; i < 80; i++ {
		bt.Record(int64(i)*1e7, 500)
	}
	for i := 0; i < 20; i++ {
		bt.Record(int64(i)*1e7, 5000)
	}
	if r := bt.ViolationRate(); r != 0.2 {
		t.Fatalf("violation rate = %v", r)
	}
}

func TestBandTrackerByLevelSums(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	lats := []int64{100, 600, 1500, 9999}
	for _, l := range lats {
		bt.Record(0, l)
	}
	iv := bt.Intervals()[0]
	var sum int64
	for _, c := range iv.ByLevel {
		sum += c
	}
	if sum != iv.Completed() {
		t.Fatalf("ByLevel sums to %d, completed %d", sum, iv.Completed())
	}
	if iv.ByLevel[Green] != 1 || iv.ByLevel[Yellow] != 1 || iv.ByLevel[Orange] != 1 || iv.ByLevel[Red] != 1 {
		t.Fatalf("ByLevel = %v", iv.ByLevel)
	}
}

func TestBandTrackerPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"sla":   func() { NewBandTracker(0, 1e9) },
		"width": func() { NewBandTracker(1000, 0) },
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

func TestCalibrateSLA(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(1000)
	}
	sla := CalibrateSLA(h, 0.99, 2)
	// p99 of constant 1000 is ~1000 (bucket midpoint), doubled ~2000.
	if sla < 1500 || sla > 2500 {
		t.Fatalf("calibrated SLA = %d", sla)
	}
	if CalibrateSLA(NewHistogram(), 0.99, 2) < 1 {
		t.Fatal("empty calibration must be >= 1")
	}
}

// fillBands records `perInterval` completions, all within the SLA, in each
// of `n` intervals from startInterval on.
func fillBands(bt *BandTracker, startInterval, n, perInterval int) {
	w := bt.Width()
	for i := 0; i < n; i++ {
		base := int64(startInterval+i) * w
		for j := 0; j < perInterval; j++ {
			bt.Record(base+int64(j), 1)
		}
	}
}

func TestTimelineThroughputSeries(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	fillBands(bt, 0, 3, 100)
	s := bt.ThroughputSeries()
	if len(s) != 3 {
		t.Fatalf("series len = %d", len(s))
	}
	for _, v := range s {
		if v != 100 {
			t.Fatalf("throughput = %v, want 100 q/s", v)
		}
	}
}

func TestTimelineSummary(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	fillBands(bt, 0, 5, 100)
	fillBands(bt, 5, 5, 200)
	sum := bt.ThroughputSummary()
	if sum.N != 10 || sum.Min != 100 || sum.Max != 200 || sum.Median != 150 {
		t.Fatalf("summary = %+v", sum)
	}
}

// A failure is counted in its interval at once, and like a completion a
// negative time counts in the first interval.
func TestTimelineNegativeTimeClamped(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 1e9})
	c.RecordFailed(-5)
	if ivs := c.bands.Intervals(); len(ivs) != 1 || ivs[0].Failed != 1 {
		t.Fatalf("failure at -5 ns not counted in interval 0 before calibration: %+v", ivs)
	}
	c.Record(-1, 100)
	s := c.Snapshot()
	if ivs := s.Bands.Intervals(); len(ivs) != 1 || ivs[0].Completed() != 1 || ivs[0].Failed != 1 || s.Failed != 1 {
		t.Fatalf("intervals %+v, failed %d: want one interval holding both ops", ivs, s.Failed)
	}
}

func TestAdaptationTimeRecovery(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	fillBands(bt, 0, 10, 100) // baseline 100/s for 10s
	fillBands(bt, 10, 3, 10)  // dip to 10/s for 3s after change
	fillBands(bt, 13, 5, 100) // recovered
	d, ok := bt.AdaptationTime(10e9, 0.9, 2)
	if !ok {
		t.Fatal("recovery not detected")
	}
	// Intervals 13 and 14 are the first sustained pair; the detector
	// reports the end of interval 13: 4 s after the change at 10 s.
	if d != 4e9 {
		t.Fatalf("adaptation delay = %d ns, want 4e9", d)
	}
}

func TestAdaptationTimeNeverRecovers(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	fillBands(bt, 0, 5, 100)
	fillBands(bt, 5, 10, 10) // permanent degradation
	if _, ok := bt.AdaptationTime(5e9, 0.9, 2); ok {
		t.Fatal("false recovery detected")
	}
}

func TestAdaptationTimeNoBaseline(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	fillBands(bt, 0, 5, 100)
	if _, ok := bt.AdaptationTime(0, 0.9, 2); ok {
		t.Fatal("recovery with no pre-change baseline")
	}
	if _, ok := bt.AdaptationTime(100e9, 0.9, 2); ok {
		t.Fatal("recovery with change beyond the table")
	}
}

func TestAdaptationTimeInstantRecovery(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	fillBands(bt, 0, 10, 100) // no dip at all
	d, ok := bt.AdaptationTime(5e9, 0.9, 1)
	if !ok {
		t.Fatal("instant recovery not detected")
	}
	if d > 2e9 {
		t.Fatalf("instant recovery delay = %d", d)
	}
}

func TestDipDepth(t *testing.T) {
	bt := NewBandTracker(1000, 1e9)
	fillBands(bt, 0, 5, 100)
	fillBands(bt, 5, 1, 20) // 80% drop
	fillBands(bt, 6, 4, 100)
	d := bt.DipDepth(5e9)
	if d < 0.75 || d > 0.85 {
		t.Fatalf("dip depth = %v, want ~0.8", d)
	}
	if bt.DipDepth(0) != 0 {
		t.Fatal("no-baseline dip depth")
	}
}
