// Quickstart: benchmark one learned index against one traditional index
// on a single drifting workload, printing the headline metrics the paper
// proposes — not just average throughput.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/report"

	lsbench "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// A workload whose key-access distribution drifts from uniform to
	// clustered during the run, with a day/night arrival pattern.
	scenario := lsbench.Scenario{
		Name:        "quickstart",
		Seed:        42,
		InitialData: lsbench.NewUniform(1, 0, lsbench.KeyDomain),
		InitialSize: 100_000,
		TrainBefore: true, // charge the learned index's training up front
		IntervalNs:  1_000_000,
		Phases: []lsbench.Phase{{
			Name: "drifting",
			Ops:  200_000,
			// The arrival's base rate is well under the RMI's capacity:
			// at 700 k/s its queue never drained and p50 grew with Ops
			// (189 ms at 200 k ops, 528 ms at 400 k); here it moves
			// 164 → 188 ns.
			Source: lsbench.FromSpec(lsbench.WorkloadSpec{
				Mix: lsbench.Mix{GetFrac: 0.7, PutFrac: 0.3},
				Access: lsbench.NewBlend(2,
					lsbench.NewUniform(3, 0, lsbench.KeyDomain),
					lsbench.NewClustered(4, 25, float64(lsbench.KeyDomain)/1e6)),
			}, lsbench.NewDiurnal(5, 50_000, 0.5, 2)),
		}},
	}

	runner := lsbench.NewRunner()
	var labels []string
	var curves []*metrics.CumCurve
	for _, factory := range []func() lsbench.SUT{lsbench.NewRMISUT, lsbench.NewBTreeSUT} {
		res, err := runner.Run(scenario, factory())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:\n", res.SUT)
		fmt.Fprintf(w, "  throughput     %.0f ops/s (average — do not stop here!)\n", res.Throughput())
		sum := res.Bands.ThroughputSummary()
		fmt.Fprintf(w, "  per-interval   median %.0f, IQR [%.0f, %.0f], %d outlier intervals\n",
			sum.Median, sum.P25, sum.P75, sum.OutlierCount)
		fmt.Fprintf(w, "  latency        p50 %dns, p99 %dns, max %dns\n",
			res.Latency.Quantile(0.5), res.Latency.Quantile(0.99), res.Latency.Max())
		fmt.Fprintf(w, "  SLA            %dns calibrated, %.2f%% violations\n",
			res.SLANs, res.Bands.ViolationRate()*100)
		fmt.Fprintf(w, "  training       offline %d work units, online %d\n",
			res.OfflineTrainWork, res.OnlineTrainWork)
		fmt.Fprintf(w, "  area-vs-ideal  %.3f\n\n", res.Cumulative.AreaVsIdeal())
		labels = append(labels, res.SUT)
		curves = append(curves, res.Cumulative)
	}
	report.CumulativePlot(w, "cumulative queries over time", labels, curves, 80, 14)
	return nil
}
