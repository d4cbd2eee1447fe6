package metrics

import (
	"math"
	"testing"
)

// TestFailSeries: failures are counted per interval of the band table,
// which they extend like completions do.
func TestFailSeries(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 100, SLANs: 100})
	c.RecordFailed(250)
	c.RecordFailed(50)
	c.Record(60, 10)
	c.RecordFailed(250) // out of interval order is fine
	c.RecordFailed(-5)  // clamps to 0
	s := c.Snapshot()
	ivs := s.Bands.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("len = %d, want 3 intervals", len(ivs))
	}
	if ivs[0].Failed != 2 || ivs[1].Failed != 0 || ivs[2].Failed != 2 || s.Failed != 4 {
		t.Fatalf("failed = %d,%d,%d (total %d)", ivs[0].Failed, ivs[1].Failed, ivs[2].Failed, s.Failed)
	}
	if ivs[0].Completed() != 1 || ivs[2].Completed() != 0 {
		t.Fatalf("completed = %d,%d", ivs[0].Completed(), ivs[2].Completed())
	}
}

// synthSnapshot builds a run with interval width 100 and SLA 100:
// five clean pre-fault intervals, a fault window [500,800) that degrades
// into a full outage, one slow (violating) interval right after the fault,
// then `healthyTail` clean intervals.
func synthSnapshot(healthyTail int) Snapshot {
	c := NewCollector(CollectorConfig{IntervalNs: 100, SLANs: 100})
	at := func(iv int) int64 { return int64(iv)*100 + 10 }
	// Intervals 0-4: 10 fast ops each, zero violations.
	for iv := 0; iv < 5; iv++ {
		for k := 0; k < 10; k++ {
			c.Record(at(iv), 50)
		}
	}
	// Interval 5: half the ops fail.
	for k := 0; k < 5; k++ {
		c.Record(at(5), 50)
		c.RecordFailed(at(5))
	}
	// Intervals 6-7: total outage.
	for iv := 6; iv < 8; iv++ {
		for k := 0; k < 10; k++ {
			c.RecordFailed(at(iv))
		}
	}
	// Interval 8: ops succeed again but violate the SLA — not yet healthy.
	for k := 0; k < 10; k++ {
		c.Record(at(8), 500)
	}
	// Intervals 9+: back to the pre-fault band.
	for iv := 9; iv < 9+healthyTail; iv++ {
		for k := 0; k < 10; k++ {
			c.Record(at(iv), 50)
		}
	}
	return c.Snapshot()
}

func TestRecoveryStats(t *testing.T) {
	s := synthSnapshot(3)
	rec := s.Recovery(500, 800)

	if rec.FailedOps != 25 {
		t.Fatalf("failed ops = %d, want 25", rec.FailedOps)
	}
	// 95 successes out of 120 total operations.
	if want := 95.0 / 120.0; math.Abs(rec.Availability-want) > 1e-12 {
		t.Fatalf("availability = %v, want %v", rec.Availability, want)
	}
	if want := (25.0 / 120.0) / DefaultErrorBudget; math.Abs(rec.ErrorBudgetBurn-want) > 1e-9 {
		t.Fatalf("budget burn = %v, want %v", rec.ErrorBudgetBurn, want)
	}
	if rec.BaselineViolationRate != 0 {
		t.Fatalf("baseline = %v, want 0", rec.BaselineViolationRate)
	}
	if rec.PeakViolationRate != 1 {
		t.Fatalf("peak = %v, want 1 (outage intervals)", rec.PeakViolationRate)
	}
	if !rec.Recovered {
		t.Fatal("not recovered despite three healthy tail intervals")
	}
	// First healthy interval starts at 900; fault ended at 800.
	if rec.TimeToRecoverNs != 100 {
		t.Fatalf("time to recover = %d, want 100", rec.TimeToRecoverNs)
	}
}

func TestRecoveryNeverRecovers(t *testing.T) {
	// Only two healthy intervals: recoveredSustain demands three.
	rec := synthSnapshot(2).Recovery(500, 800)
	if rec.Recovered {
		t.Fatal("recovered with an unsustained healthy streak")
	}
	if rec.TimeToRecoverNs != -1 {
		t.Fatalf("time to recover = %d, want -1 sentinel", rec.TimeToRecoverNs)
	}
	if want := (25.0 / 110.0) / DefaultErrorBudget; math.Abs(rec.ErrorBudgetBurn-want) > 1e-9 {
		t.Fatalf("budget burn = %v, want default-budget %v", rec.ErrorBudgetBurn, want)
	}
}

func TestRecoveryCleanRun(t *testing.T) {
	// A failure-free run: availability 1, immediate recovery after the
	// (empty) fault window.
	c := NewCollector(CollectorConfig{IntervalNs: 100, SLANs: 100})
	for iv := 0; iv < 10; iv++ {
		for k := 0; k < 10; k++ {
			c.Record(int64(iv)*100+10, 50)
		}
	}
	s := c.Snapshot()
	if s.Failed != 0 {
		t.Fatal("clean run counted failures")
	}
	rec := s.Recovery(300, 400)
	if rec.Availability != 1 || rec.ErrorBudgetBurn != 0 || rec.FailedOps != 0 {
		t.Fatalf("clean run recovery: %+v", rec)
	}
	if !rec.Recovered || rec.TimeToRecoverNs != 0 {
		t.Fatalf("clean run should recover instantly: recovered=%v ttr=%d",
			rec.Recovered, rec.TimeToRecoverNs)
	}
}

// TestRecoveryAllFailed: a run that completes nothing is one long outage,
// not an empty table.
func TestRecoveryAllFailed(t *testing.T) {
	c := NewCollector(CollectorConfig{IntervalNs: 100})
	for k := int64(0); k < 30; k++ {
		c.RecordFailed(k * 10)
	}
	rec := c.Snapshot().Recovery(0, 1e9)
	if rec.PeakViolationRate != 1 || rec.FailedOps != 30 || rec.Availability != 0 {
		t.Fatalf("all-failed run: peak %v, failed %d, availability %v; want 1, 30, 0",
			rec.PeakViolationRate, rec.FailedOps, rec.Availability)
	}
	if rec.Recovered {
		t.Fatal("all-failed run recovered")
	}
}
