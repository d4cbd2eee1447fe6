package metrics

// RecoveryStats is the robustness view of a faulted run: how far the
// system degraded during the fault window and how long it took to return
// to its pre-fault SLA band afterwards. It backs the Fig 1e report panel.
type RecoveryStats struct {
	// FaultStartNs/FaultEndNs bound the fault window measured against.
	FaultStartNs, FaultEndNs int64
	// BaselineViolationRate is the SLA violation rate of the pre-fault
	// intervals — the band the system must return to.
	BaselineViolationRate float64
	// PeakViolationRate is the worst per-interval violation rate at or
	// after fault start (failures count as violations).
	PeakViolationRate float64
	// TimeToRecoverNs is the time from fault end until the system first
	// sustains recoveredSustain consecutive healthy intervals (no
	// failures, some completions, violation rate within tolerance of
	// baseline), measured to the start of the first such interval. -1 when
	// the run ends without recovering.
	TimeToRecoverNs int64
	// Recovered reports whether the run recovered before it ended.
	Recovered bool
	// Availability is the fraction of all operations (completed + failed)
	// that succeeded.
	Availability float64
	// FailedOps is the number of failed operations.
	FailedOps int64
	// ErrorBudgetBurn is the fraction of the run's error budget consumed:
	// (1 - Availability) / budget, where the budget is the fraction of
	// allowed failures (SRE-style; 1.0 means the budget is exactly spent).
	ErrorBudgetBurn float64
}

// Recovery-measurement constants: an interval is healthy when its
// violation rate is within recoveryTolerance of the pre-fault baseline
// and it saw no failures; recovery requires recoveredSustain consecutive
// healthy intervals. DefaultErrorBudget is the allowed failure fraction
// ("three nines") the error-budget burn is measured against.
const (
	recoveryTolerance  = 0.05
	recoveredSustain   = 3
	DefaultErrorBudget = 0.001
)

// Recovery computes the robustness view of this snapshot against a fault
// window [faultStartNs, faultEndNs), burning DefaultErrorBudget. The
// snapshot must have its per-interval table (a finalized Collector's
// always does).
func (s Snapshot) Recovery(faultStartNs, faultEndNs int64) RecoveryStats {
	rec := RecoveryStats{
		FaultStartNs:    faultStartNs,
		FaultEndNs:      faultEndNs,
		TimeToRecoverNs: -1,
		FailedOps:       s.Failed,
		Availability:    1,
	}
	if total := s.Completed + s.Failed; total > 0 {
		rec.Availability = float64(s.Completed) / float64(total)
	}
	rec.ErrorBudgetBurn = (1 - rec.Availability) / DefaultErrorBudget

	ivs := s.Bands.Intervals()
	width := s.Bands.Width()

	// Baseline: violation rate of the intervals fully before fault start.
	var baseDone, baseBad int64
	first := 0
	for ; first < len(ivs) && ivs[first].Start+width <= faultStartNs; first++ {
		baseDone += ivs[first].Completed()
		baseBad += ivs[first].Violated()
	}
	if baseDone > 0 {
		rec.BaselineViolationRate = float64(baseBad) / float64(baseDone)
	}

	// Degradation and recovery scan from the first interval touching the
	// fault. Failures count against each interval's rate: an interval
	// where every op failed is maximally violated, not empty.
	healthy := 0
	for _, iv := range ivs[first:] {
		var rate float64
		if done := iv.Completed() + iv.Failed; done > 0 {
			rate = float64(iv.Violated()+iv.Failed) / float64(done)
		}
		rec.PeakViolationRate = max(rec.PeakViolationRate, rate)
		if rec.Recovered || iv.Start+width <= faultEndNs {
			continue // still inside the fault window (or already done)
		}
		if iv.Failed == 0 && iv.Completed() > 0 && rate <= rec.BaselineViolationRate+recoveryTolerance {
			healthy++
			if healthy == recoveredSustain {
				start := iv.Start - int64(recoveredSustain-1)*width
				rec.TimeToRecoverNs = max(start-faultEndNs, 0)
				rec.Recovered = true
			}
		} else {
			healthy = 0
		}
	}
	return rec
}
