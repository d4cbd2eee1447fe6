package metrics

// Collector is the one measurement pipeline shared by every execution
// engine (the runner under either clock, in process or over the network
// driver, and the SQL runner): it owns the Figure 1 quadruple — Timeline (1a), CumCurve (1b),
// BandTracker (1c), and the overall latency Histogram — and implements the
// paper's deferred SLA calibration exactly once.
//
// Completions enter through Record(done, latency). The timeline (which
// buckets the latency into its interval's histogram) and the curve account
// every completion immediately; the overall latency histogram is the merge
// of the timeline's intervals, taken at Snapshot, so a completion is never
// bucketed twice for the same answer. Band tracking is deferred while the
// SLA threshold is unknown: the first CalibrateAfter
// samples are buffered, the threshold is derived from their latency
// distribution via CalibrateSLA, and the buffer is replayed into the
// tracker so no completion is lost. A fixed SLA (Config.SLANs > 0) starts
// band tracking on the first completion.
//
// Collector is not safe for concurrent use; every engine records from the
// one goroutine that dispatches.
type Collector struct {
	cfg       CollectorConfig
	timeline  *Timeline
	cum       *CumCurve
	bands     *BandTracker
	sla       int64
	completed int64
	failed    int64
	fails     *FailSeries
	pending   []pendingSample
	session   *SessionTracker
}

// pendingSample is a completion parked while the SLA is uncalibrated.
type pendingSample struct{ t, lat int64 }

// CollectorConfig configures a Collector. IntervalNs is required; the
// remaining fields default to the paper's calibration rule (first 1000
// samples, 20x their median, 1ms fallback when there are no samples).
type CollectorConfig struct {
	// IntervalNs is the timeline/band reporting interval width.
	IntervalNs int64
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
	if cfg.IntervalNs <= 0 {
		panic("metrics: NewCollector with non-positive interval")
	}
	if cfg.CalibrateAfter <= 0 {
		cfg.CalibrateAfter = 1000
	}
	return &Collector{
		cfg:      cfg,
		timeline: NewTimeline(cfg.IntervalNs),
		cum:      newCumCurve(cfg.Ops),
		sla:      cfg.SLANs,
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

// Record accounts one completed operation at time done (ns since run
// start) with the given latency. Completions must arrive in non-decreasing
// done order (the CumCurve contract).
func (c *Collector) Record(done, latency int64) {
	c.completed++
	if c.session != nil {
		c.session.Observe(done)
	}
	c.cum.Add(done, c.completed)
	c.timeline.Record(done, latency)
	if c.bands != nil {
		c.bands.Record(done, latency)
		return
	}
	c.pending = append(c.pending, pendingSample{done, latency})
	if c.sla == 0 && len(c.pending) == c.cfg.CalibrateAfter {
		c.sla = c.calibrateFromPending()
	}
	if c.sla > 0 {
		c.startBands()
	}
}

// RecordFailed accounts one operation that completed as an error at time
// done. Failed operations held the server but produced no valid latency:
// they are excluded from the timeline, curve, histogram, and bands, and
// tallied in a per-interval failure series instead — the availability
// input of the recovery metrics. Allocation is deferred to first use so a
// failure-free run's snapshot is unchanged.
func (c *Collector) RecordFailed(done int64) {
	c.failed++
	if c.fails == nil {
		c.fails = NewFailSeries(c.cfg.IntervalNs)
	}
	c.fails.Record(done)
}

// Calibrate forces SLA calibration from the samples buffered so far and
// starts band tracking, replaying the buffer. Engines call it at natural
// boundaries (the virtual runner at the end of phase 0) when the run may
// be shorter than the calibration window. It is a no-op once band tracking
// has started.
func (c *Collector) Calibrate() {
	if c.bands != nil {
		return
	}
	if c.sla == 0 {
		c.sla = c.calibrateFromPending()
	}
	c.startBands()
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

// startBands creates the band tracker and replays the parked completions.
func (c *Collector) startBands() {
	c.bands = NewBandTracker(c.sla, c.cfg.IntervalNs)
	for _, p := range c.pending {
		c.bands.Record(p.t, p.lat)
	}
	c.pending = nil
}

// SLA returns the current SLA threshold (0 while uncalibrated).
func (c *Collector) SLA() int64 { return c.sla }

// Completed returns the number of recorded completions.
func (c *Collector) Completed() int64 { return c.completed }

// Snapshot finalizes the pipeline — calibrating and replaying if band
// tracking has not started — and returns the metric quadruple. Further
// Records keep feeding the same underlying structures, so engines
// snapshot once, when the run is over.
func (c *Collector) Snapshot() Snapshot {
	c.Calibrate()
	s := Snapshot{
		Timeline:   c.timeline,
		Cumulative: c.cum,
		Bands:      c.bands,
		Latency:    c.timeline.MergedLatency(),
		SLANs:      c.sla,
		Completed:  c.completed,
		Failed:     c.failed,
		Fails:      c.fails,
	}
	if c.session != nil {
		s.Sessions = c.session.Stats()
	}
	return s
}

// Snapshot is the finalized measurement quadruple plus the SLA threshold
// and completion count — the measured core of core.Result, the one result
// type both executors (core.Runner.RunOn, core.RunSQL) return.
type Snapshot struct {
	// Timeline backs Figure 1a: per-interval throughput and latency.
	Timeline *Timeline
	// Cumulative backs Figure 1b: completions over time.
	Cumulative *CumCurve
	// Bands backs Figure 1c: SLA latency bands.
	Bands *BandTracker
	// Latency is the overall latency histogram: the merge of the
	// timeline's per-interval histograms.
	Latency *Histogram
	// SLANs is the SLA threshold used (fixed or calibrated).
	SLANs int64
	// Completed is the number of operations accounted.
	Completed int64
	// Failed is the number of operations that completed as errors
	// (RecordFailed); they are excluded from every latency structure.
	Failed int64
	// Fails is the per-interval failure series (nil when no op failed).
	Fails *FailSeries
	// Sessions is the per-session SLA digest (nil unless the engine
	// marked session boundaries via BeginSession).
	Sessions *SessionStats
}
