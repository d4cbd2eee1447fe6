// Optimizersla: a mini-SQL workload where mid-run data drift invalidates
// the static optimizer's analyzed statistics; a Bao-style steered
// optimizer with learned cardinality feedback recovers online. Output is
// the paper's Figure 1c view (SLA bands) on the SQL substrate, plus the
// adjustment-speed single-value metric.
//
//	go run ./examples/optimizersla
package main

import (
	"fmt"
	"os"

	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/report"
)

func main() {
	res, err := figures.OptDrift(figures.Scale{
		DataSize:   80_000,
		Ops:        40_000,
		IntervalNs: 500_000,
	}, 11)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var labels []string
	var curves []*metrics.CumCurve
	for _, name := range report.SortedKeys(res.Results) {
		r := res.Results[name]
		labels = append(labels, name)
		curves = append(curves, r.Cumulative)
		fmt.Printf("=== %s ===\n", name)
		fmt.Printf("throughput: %.0f queries/s over the whole run\n", r.Throughput())
		fmt.Printf("SLA %dns; over-SLA after the drift: %.3fms\n",
			r.SLANs, float64(res.AdjustmentSpeed[name])/1e6)
		fmt.Printf("training work: %d units (label collection + bandit updates)\n",
			r.OnlineTrainWork)
		report.BandChart(os.Stdout, "SLA bands", r.Bands, 8)
		fmt.Println()
	}
	report.CumulativePlot(os.Stdout,
		"cumulative queries (database drifts at the midpoint)", labels, curves, 90, 14)
	fmt.Println("\nThe static optimizer keeps planning from stale statistics after the")
	fmt.Println("shift; the steered optimizer explores briefly, learns the new")
	fmt.Println("cardinalities from execution feedback, and its slope recovers.")
}
