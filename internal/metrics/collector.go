package metrics

// Collector is the one measurement pipeline of every run (the runner under
// either clock, in process or over the network driver, for KV and query
// SUTs), and the one place a completion turns into a Figure 1 number: it
// owns the run's one per-interval table (BandTracker: the Figure 1a
// throughput series, the Figure 1c bands and the failures), CumCurve (1b),
// the overall latency Histogram, the adjustment-speed metric, and the
// paper's deferred SLA calibration, implemented exactly once.
//
// Completions enter through RecordBatch(done, latencies), a run of them in
// completion order; Record is its one-element call. Each completion is
// bucketed once, into the current phase's latency histogram (BeginPhase);
// the overall latency histogram is the merge of the phase histograms, taken
// at Snapshot. The curve keeps every completion's time and the band tracker
// counts it in its interval's band, dividing only when a run crosses into
// another interval. A failure is counted in its interval at once. Banding
// completions is deferred while the SLA threshold is unknown: the first
// CalibrateAfter samples are buffered, the threshold is derived from their
// latency distribution via CalibrateSLA, and the buffer is replayed into the
// tracker so no completion is lost. A phase change calibrates from whatever
// is buffered, so the threshold is known for every phase after the first. A
// fixed SLA (Config.SLANs > 0) bands every completion as it is recorded.
//
// Collector is not safe for concurrent use; every engine records from the
// one goroutine that dispatches.
type Collector struct {
	cfg     CollectorConfig
	cum     *CumCurve
	bands   *BandTracker // its SLA is 0 until calibrated
	pending []pendingSample
	session *SessionTracker
	phase   *Histogram   // the current phase's latencies
	phases  []*Histogram // every phase's, in order
	adjust  []int64      // every phase change's adjustment speed, in order
	adjLeft int          // completions the current change's window still takes
}

// pendingSample is a completion parked while the SLA is uncalibrated.
type pendingSample struct{ t, lat int64 }

// CollectorConfig configures a Collector. IntervalNs is required; the
// remaining fields default to the paper's calibration rule (first 1000
// samples, 20x their median, 1ms fallback when there are no samples).
type CollectorConfig struct {
	// IntervalNs is the width of the per-interval table's intervals.
	IntervalNs int64
	// PostChangeN is the adjustment-speed window: how many successful
	// completions after each phase change are summed (0: none, so every
	// change reports 0).
	PostChangeN int
	// SLANs fixes the SLA threshold; 0 defers to calibration.
	SLANs int64
	// CalibrateAfter is how many completions are buffered before the SLA
	// is calibrated from their latencies (default 1000).
	CalibrateAfter int
	// Ops is how many completions the engine expects to record, when it
	// knows: the cumulative curve is allocated once at that size instead
	// of growing (and copying itself) inside the measured loop. 0 grows on
	// demand; a wrong value costs memory or regrowth, never correctness.
	Ops int
	// SessionBudgetNs is the per-session SLA budget applied when the
	// engine marks session boundaries via BeginSession (0: sessions are
	// counted without a budget). It has no effect until BeginSession is
	// called, so non-session runs snapshot exactly as before.
	SessionBudgetNs int64
}

// NewCollector returns a collector for the given configuration.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.IntervalNs <= 0 || cfg.SLANs < 0 {
		panic("metrics: NewCollector with non-positive interval or negative SLA")
	}
	if cfg.CalibrateAfter <= 0 {
		cfg.CalibrateAfter = 1000
	}
	return &Collector{
		cfg:   cfg,
		cum:   newCumCurve(cfg.Ops),
		bands: &BandTracker{sla: cfg.SLANs, width: cfg.IntervalNs},
	}
}

// BeginSession marks a session boundary: the next completions belong to a
// session whose first operation arrived at the given time. The tracker is
// created lazily, so collectors on non-session workloads carry none and
// their snapshots are unchanged.
func (c *Collector) BeginSession(arrive int64) {
	if c.session == nil {
		c.session = NewSessionTracker(c.cfg.SessionBudgetNs)
	}
	c.session.Begin(arrive)
}

// BeginPhase starts a phase and returns the histogram its completions'
// latencies are bucketed into, which the engine may keep as the phase's
// latency distribution. A collector whose engine never calls it records
// into one implicit phase. Every phase after the first is a distribution
// change: it calibrates the SLA (a first phase may be shorter than the
// calibration window) and opens that change's adjustment-speed window.
func (c *Collector) BeginPhase() *Histogram {
	if c.phases != nil {
		c.calibrate()
		c.adjust = append(c.adjust, 0)
		c.adjLeft = c.cfg.PostChangeN
	}
	c.phase = NewHistogram()
	c.phases = append(c.phases, c.phase)
	return c.phase
}

// Record accounts one completed operation at time done (ns since run
// start) with the given latency: RecordBatch of one.
func (c *Collector) Record(done, latency int64) {
	c.RecordBatch([]int64{done}, []int64{latency})
}

// RecordBatch accounts a run of completed operations: done[i] is the i-th
// completion time (ns since run start), lat[i] its latency. Completions
// must arrive in non-decreasing done order across calls (the CumCurve
// contract). The result is the same however a stream is split into runs.
func (c *Collector) RecordBatch(done, lat []int64) {
	if c.phase == nil {
		c.BeginPhase()
	}
	for i, t := range done {
		if c.session != nil {
			c.session.Observe(t)
		}
		c.cum.Add(t)
		c.phase.Record(lat[i])
	}
	// The paper's adjustment speed: "the sum of query times above the SLA
	// threshold over the first N queries after a distribution change".
	if k := min(c.adjLeft, len(lat)); k > 0 {
		for _, l := range lat[:k] {
			c.adjust[len(c.adjust)-1] += max(l-c.bands.sla, 0)
		}
		c.adjLeft -= k
	}
	if c.bands.sla == 0 {
		// Park up to the calibration window; calibrate the moment it fills,
		// even inside a run, and band the rest of the run after it.
		k := min(len(done), c.cfg.CalibrateAfter-len(c.pending))
		for i, t := range done[:k] {
			c.pending = append(c.pending, pendingSample{t, lat[i]})
		}
		if len(c.pending) < c.cfg.CalibrateAfter {
			return
		}
		done, lat = done[k:], lat[k:]
	}
	c.calibrate()
	c.bands.recordRun(done, lat)
}

// RecordFailed accounts one operation that completed as an error at time
// done. Failed operations held the server but produced no valid latency:
// they are excluded from the curve, histogram and bands, and counted in
// their interval's Failed instead — the availability input of the recovery
// metrics.
func (c *Collector) RecordFailed(done int64) {
	c.bands.at(done).Failed++
}

// calibrate forces SLA calibration from the samples buffered so far and
// replays the buffer into the bands. A phase change and Snapshot call it,
// since a run or its first phase may be shorter than the calibration
// window. It is a no-op once the SLA is known.
func (c *Collector) calibrate() {
	if c.bands.sla != 0 {
		return
	}
	c.bands.sla = c.calibrateFromPending()
	for _, p := range c.pending {
		c.bands.Record(p.t, p.lat)
	}
	c.pending = nil
}

// The calibrated SLA is 20x the buffered completions' median latency.
const (
	calibrateQuantile = 0.5
	calibrateHeadroom = 20
)

// calibrateFromPending derives the SLA threshold from the buffered
// completions per the paper's baseline-statistics rule, falling back to
// 1ms when there are none.
func (c *Collector) calibrateFromPending() int64 {
	if len(c.pending) == 0 {
		return 1_000_000 // 1ms fallback
	}
	h := NewHistogram()
	for _, p := range c.pending {
		h.Record(p.lat)
	}
	return CalibrateSLA(h, calibrateQuantile, calibrateHeadroom)
}

// Snapshot finalizes the pipeline — calibrating and replaying if the SLA
// is still unknown — and returns the run's metrics. Engines snapshot once,
// when the run is over.
func (c *Collector) Snapshot() Snapshot {
	c.calibrate()
	lat := NewHistogram()
	for _, h := range c.phases {
		lat.Merge(h)
	}
	var failed int64
	for _, iv := range c.bands.intervals {
		failed += iv.Failed
	}
	s := Snapshot{
		Cumulative:   c.cum,
		Bands:        c.bands,
		Latency:      lat,
		SLANs:        c.bands.sla,
		AdjustmentNs: c.adjust,
		Completed:    c.cum.Total(),
		Failed:       failed,
	}
	if c.session != nil {
		s.Sessions = c.session.Stats()
	}
	return s
}

// Snapshot is the finalized per-interval table, curve and histogram plus
// the SLA threshold, the adjustment speeds and the operation counts — the
// measured core of core.Result, the result type the one executor
// (core.Runner.RunOn) returns.
type Snapshot struct {
	// Cumulative backs Figure 1b: completions over time.
	Cumulative *CumCurve
	// Bands is the per-interval table: Figure 1a's throughput series,
	// Figure 1c's SLA latency bands, and each interval's failures.
	Bands *BandTracker
	// Latency is the overall latency histogram: the merge of the
	// collector's per-phase histograms.
	Latency *Histogram
	// SLANs is the SLA threshold used (fixed or calibrated).
	SLANs int64
	// AdjustmentNs holds, for each phase after the first, the paper's
	// adjustment speed: the sum of max(latency - SLA, 0) over the phase's
	// first CollectorConfig.PostChangeN successful completions.
	AdjustmentNs []int64
	// Completed is the number of operations accounted.
	Completed int64
	// Failed is the number of operations that completed as errors
	// (RecordFailed); they are excluded from every latency structure.
	Failed int64
	// Sessions is the per-session SLA digest (nil unless the engine
	// marked session boundaries via BeginSession).
	Sessions *SessionStats
}
