package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
)

// RobustnessPanel renders the Fig 1e robustness view of a faulted run:
// availability and error-budget burn over the whole run, the degradation
// depth during the fault window, and the time the system took to return
// to its pre-fault SLA band. It consumes only metrics types, so any
// engine's snapshot can feed it.
func RobustnessPanel(w io.Writer, title string, s metrics.Snapshot, rec metrics.RecoveryStats) {
	fmt.Fprintf(w, "%s\n", title)
	total := s.Completed + rec.FailedOps
	fmt.Fprintf(w, "  availability        %8.3f%%  (%d failed / %d ops)\n",
		rec.Availability*100, rec.FailedOps, total)
	fmt.Fprintf(w, "  error budget burn   %8.2fx  (budget %.3f%% failures)\n",
		rec.ErrorBudgetBurn, metrics.DefaultErrorBudget*100)
	fmt.Fprintf(w, "  fault window        [%.3fms, %.3fms)\n",
		float64(rec.FaultStartNs)/1e6, float64(rec.FaultEndNs)/1e6)
	fmt.Fprintf(w, "  violation rate      %8.2f%% baseline -> %.2f%% peak\n",
		rec.BaselineViolationRate*100, rec.PeakViolationRate*100)
	switch {
	case rec.Recovered:
		fmt.Fprintf(w, "  time to recover     %8.3fms  (back in pre-fault SLA band)\n",
			float64(rec.TimeToRecoverNs)/1e6)
	default:
		fmt.Fprintf(w, "  time to recover          n/a  (never re-entered pre-fault SLA band)\n")
	}
	if s.Failed > 0 {
		failBar(w, s.Bands)
	}
}

// failBar renders the per-interval failures as a one-line sparkline
// aligned with the band chart's intervals: '.' no failures, digits 1-9
// scale to the worst interval's failure share, '#' is the peak.
func failBar(w io.Writer, bt *metrics.BandTracker) {
	ivs := bt.Intervals()
	merge, cols := chartColumns(len(ivs))
	counts := make([]int64, cols)
	for i, iv := range ivs {
		counts[i/merge] += iv.Failed
	}
	var max int64 = 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var sb strings.Builder
	for _, c := range counts {
		switch {
		case c == 0:
			sb.WriteByte('.')
		case c == max:
			sb.WriteByte('#')
		default:
			d := c * 9 / max
			if d < 1 {
				d = 1
			}
			sb.WriteByte(byte('0' + d))
		}
	}
	fmt.Fprintf(w, "  failures/interval   %s  (peak %d)\n", sb.String(), max)
}
