package metrics

import (
	"math"
	"testing"
)

func TestFailSeries(t *testing.T) {
	f := NewFailSeries(100)
	f.Record(250)
	f.Record(50)
	f.Record(250) // out of interval order is fine
	f.Record(-5)  // clamps to 0
	if f.Width() != 100 {
		t.Fatalf("width = %d", f.Width())
	}
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3 intervals", f.Len())
	}
	if f.At(0) != 2 || f.At(1) != 0 || f.At(2) != 2 {
		t.Fatalf("counts = %d,%d,%d", f.At(0), f.At(1), f.At(2))
	}
	if f.At(-1) != 0 || f.At(99) != 0 {
		t.Fatal("out-of-range At not zero")
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
	rec := s.Recovery(500, 800, 0.25)

	if rec.FailedOps != 25 {
		t.Fatalf("failed ops = %d, want 25", rec.FailedOps)
	}
	// 95 successes out of 120 total operations.
	if want := 95.0 / 120.0; math.Abs(rec.Availability-want) > 1e-12 {
		t.Fatalf("availability = %v, want %v", rec.Availability, want)
	}
	if want := (25.0 / 120.0) / 0.25; math.Abs(rec.ErrorBudgetBurn-want) > 1e-12 {
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
	rec := synthSnapshot(2).Recovery(500, 800, 0)
	if rec.Recovered {
		t.Fatal("recovered with an unsustained healthy streak")
	}
	if rec.TimeToRecoverNs != -1 {
		t.Fatalf("time to recover = %d, want -1 sentinel", rec.TimeToRecoverNs)
	}
	// The default error budget kicks in when the caller passes 0.
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
	if s.Fails != nil || s.Failed != 0 {
		t.Fatal("clean run grew a fail series")
	}
	rec := s.Recovery(300, 400, 0)
	if rec.Availability != 1 || rec.ErrorBudgetBurn != 0 || rec.FailedOps != 0 {
		t.Fatalf("clean run recovery: %+v", rec)
	}
	if !rec.Recovered || rec.TimeToRecoverNs != 0 {
		t.Fatalf("clean run should recover instantly: recovered=%v ttr=%d",
			rec.Recovered, rec.TimeToRecoverNs)
	}
}
