package metrics

import (
	"reflect"
	"testing"
)

// TestCollectorFixedSLA: with a fixed threshold, band tracking starts on
// the first completion and nothing is buffered.
func TestCollectorFixedSLA(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 1e6, SLANs: 500})
	c.Record(10, 400)
	c.Record(20, 600)
	s := c.Snapshot()
	if s.SLANs != 500 {
		t.Fatalf("SLA = %d, want 500", s.SLANs)
	}
	if s.Completed != 2 || s.Cumulative.Total() != 2 || s.Latency.Count() != 2 {
		t.Fatalf("completed=%d cum=%d hist=%d, want 2 each",
			s.Completed, s.Cumulative.Total(), s.Latency.Count())
	}
	var bandTotal, violated int64
	for _, iv := range s.Bands.Intervals() {
		bandTotal += iv.Completed()
		violated += iv.Violated()
	}
	if bandTotal != 2 || violated != 1 {
		t.Fatalf("bands saw %d completions (%d violated), want 2 (1)", bandTotal, violated)
	}
}

// TestCollectorDeferredCalibration: the threshold is derived from the
// first CalibrateAfter samples and the buffer is replayed losslessly.
func TestCollectorDeferredCalibration(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 1e6, CalibrateAfter: 4})
	lats := []int64{100, 100, 100, 100, 9000}
	for i, l := range lats {
		c.Record(int64(i+1)*10, l)
		if i < 3 && c.bands.sla != 0 {
			t.Fatalf("SLA calibrated after %d samples", i+1)
		}
	}
	s := c.Snapshot()
	// CalibrateSLA(median=100, 0.5, 20) on the log-bucketed histogram.
	want := CalibrateSLA(histOf(lats[:4]), 0.5, 20)
	if s.SLANs != want {
		t.Fatalf("SLA = %d, want %d", s.SLANs, want)
	}
	var bandTotal int64
	for _, iv := range s.Bands.Intervals() {
		bandTotal += iv.Completed()
	}
	if bandTotal != int64(len(lats)) {
		t.Fatalf("bands saw %d completions, want %d (buffer replayed)", bandTotal, len(lats))
	}
}

// TestCollectorShortRun: Snapshot on a run shorter than the calibration
// window calibrates from whatever arrived.
func TestCollectorShortRun(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 1e6})
	c.Record(5, 200)
	c.Record(6, 300)
	s := c.Snapshot()
	if s.SLANs <= 0 {
		t.Fatalf("SLA = %d, want calibrated > 0", s.SLANs)
	}
	var bandTotal int64
	for _, iv := range s.Bands.Intervals() {
		bandTotal += iv.Completed()
	}
	if bandTotal != 2 {
		t.Fatalf("bands saw %d completions, want 2", bandTotal)
	}
}

// TestCollectorEmpty: a run with zero completions still snapshots with the
// 1ms fallback threshold.
func TestCollectorEmpty(t *testing.T) {
	s := NewCollector(CollectorConfig{IntervalNs: 1e6}).Snapshot()
	if s.SLANs != 1_000_000 {
		t.Fatalf("SLA = %d, want 1ms fallback", s.SLANs)
	}
	if s.Completed != 0 || len(s.Bands.Intervals()) != 0 {
		t.Fatalf("empty snapshot has data")
	}
}

// TestCollectorCalibrateIdempotent: a phase change calibrates from what a
// short first phase buffered; later changes and records keep one tracker.
func TestCollectorCalibrateIdempotent(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 1e6, CalibrateAfter: 100})
	c.BeginPhase()
	c.Record(1, 50)
	if c.bands.sla != 0 {
		t.Fatal("SLA calibrated before the window filled or the phase changed")
	}
	c.BeginPhase()
	sla := c.bands.sla
	if sla == 0 {
		t.Fatal("the phase change did not calibrate the SLA")
	}
	c.BeginPhase() // calibrates nothing more
	c.Record(2, 60)
	s := c.Snapshot()
	if s.SLANs != sla {
		t.Fatalf("SLA changed across Calibrate calls: %d -> %d", sla, s.SLANs)
	}
	var bandTotal int64
	for _, iv := range s.Bands.Intervals() {
		bandTotal += iv.Completed()
	}
	if bandTotal != 2 {
		t.Fatalf("bands saw %d completions, want 2", bandTotal)
	}
}

// TestAdjustmentSpeed: each phase after the first sums max(latency - SLA,
// 0) over its first PostChangeN successful completions; the first phase and
// failures add nothing, and a window past a phase's end clamps.
func TestAdjustmentSpeed(t *testing.T) {
	lats := []int64{500, 1500, 3000, 800, 2000} // 0 + 500 + 2000 + 0 + 1000
	for _, tc := range []struct {
		n    int
		want []int64
	}{
		{5, []int64{3500, 1000}},
		{2, []int64{500, 1000}},
		{1, []int64{0, 500}},
		{100, []int64{3500, 1000}},
		{0, []int64{0, 0}},
	} {
		c := NewCollector(CollectorConfig{IntervalNs: 1e6, SLANs: 1000, PostChangeN: tc.n})
		c.BeginPhase()
		c.Record(1, 9000) // before any change
		c.BeginPhase()
		for i, l := range lats {
			c.RecordFailed(int64(10 + 2*i))
			c.Record(int64(11+2*i), l)
		}
		c.BeginPhase()
		c.RecordBatch([]int64{30, 31}, []int64{1500, 1500})
		if got := c.Snapshot().AdjustmentNs; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("window %d: adjustment %v, want %v", tc.n, got, tc.want)
		}
	}
	if s := NewCollector(CollectorConfig{IntervalNs: 1e6, PostChangeN: 10}).Snapshot(); s.AdjustmentNs != nil {
		t.Fatalf("a run with no phase change reports adjustment %v", s.AdjustmentNs)
	}
}

func histOf(lats []int64) *Histogram {
	h := NewHistogram()
	for _, l := range lats {
		h.Record(l)
	}
	return h
}

// TestCollectorLatencyMatchesDirectHistogram: the overall histogram is
// derived from the phase histograms at Snapshot, and must be the histogram
// that recording every latency directly would have produced.
func TestCollectorLatencyMatchesDirectHistogram(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 1000, SLANs: 500})
	direct := NewHistogram()
	var done int64
	for i := int64(0); i < 5000; i++ {
		lat := (i*7919)%100_000 + i%3
		done += 1 + i%700 // spans many intervals, some of them empty
		c.Record(done, lat)
		direct.Record(lat)
	}
	got := c.Snapshot().Latency
	if got.Count() != direct.Count() || got.Mean() != direct.Mean() ||
		got.Min() != direct.Min() || got.Max() != direct.Max() {
		t.Fatalf("derived %v, direct %v", got, direct)
	}
	for i, n := range direct.counts {
		if got.counts[i] != n {
			t.Fatalf("bucket %d: derived %d, direct %d", i, got.counts[i], n)
		}
	}
}

// TestCollectorPhasesMergeToOneHistogram: each completion is bucketed once,
// into its phase's histogram; Snapshot's overall histogram is their merge
// and equals, field for field, one histogram fed every sample.
func TestCollectorPhasesMergeToOneHistogram(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 1000, CalibrateAfter: 10})
	whole := NewHistogram()
	var phases []*Histogram
	var done int64
	for p := int64(0); p < 4; p++ {
		phase, direct := c.BeginPhase(), NewHistogram()
		phases = append(phases, phase)
		for i := int64(0); i < 500*p; i++ { // phase 0 is empty
			lat := (i*7919+p)%50_000 + 1
			done += i % 300
			c.Record(done, lat)
			whole.Record(lat)
			direct.Record(lat)
		}
		if !reflect.DeepEqual(phase, direct) {
			t.Fatalf("phase %d histogram %v, want %v", p, phase, direct)
		}
	}
	if got := c.Snapshot().Latency; !reflect.DeepEqual(got, whole) {
		t.Fatalf("merged %v, want %v", got, whole)
	}
	for p, h := range phases {
		if p > 0 && h.Count() != uint64(500*p) {
			t.Fatalf("Snapshot changed phase %d: count %d", p, h.Count())
		}
	}
}

// TestCollectorPreSizedCurve: with the op count known up front the curve
// is allocated once, and a run that outgrows the hint still records.
func TestCollectorPreSizedCurve(t *testing.T) {
	const ops = 3000
	c := NewCollector(CollectorConfig{IntervalNs: 1e6, SLANs: 500, Ops: ops})
	for i := int64(0); i < ops; i++ {
		c.Record(i, 100)
	}
	if got := cap(c.cum.times); got != ops {
		t.Fatalf("curve capacity %d after %d records, want the hint unchanged", got, ops)
	}
	c.Record(ops, 100)
	if s := c.Snapshot(); s.Cumulative.Len() != ops+1 || s.Cumulative.Total() != ops+1 {
		t.Fatalf("curve has %d points totalling %d, want %d", s.Cumulative.Len(), s.Cumulative.Total(), ops+1)
	}
}
