// Driftstorm: a production-style evolving KV workload — diurnal load, a
// moving hot set, growing skew, and an abrupt key-space migration — run
// against the adaptive learned index (ALEX) and the B+ tree. This is the
// kind of single-run, multi-situation scenario the paper argues benchmarks
// must support (Lesson 1), with adaptation time and dip depth reported.
//
//	go run ./examples/driftstorm
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
	// Three situations in one run:
	//   1. moving hotspot over the loaded key range (diurnal load)
	//   2. growing skew (bursty load)
	//   3. abrupt migration to a new key region with an insert flood
	newRegionLo := lsbench.KeyDomain / 2
	scenario := lsbench.Scenario{
		Name:        "driftstorm",
		Seed:        7,
		InitialData: lsbench.NewUniform(1, 0, lsbench.KeyDomain/4),
		InitialSize: 150_000,
		IntervalNs:  1_000_000,
		Phases: []lsbench.Phase{
			{
				Name: "moving-hotspot",
				Ops:  120_000,
				Source: lsbench.FromSpec(lsbench.WorkloadSpec{
					Mix:    lsbench.ReadHeavy,
					Access: lsbench.NewMovingHotspot(2, 0.9, 0.02, 2),
				}, lsbench.NewDiurnal(3, 500_000, 0.6, 2)),
			},
			{
				Name: "growing-skew",
				Ops:  120_000,
				Source: lsbench.FromSpec(lsbench.WorkloadSpec{
					Mix:    lsbench.Mix{GetFrac: 0.8, PutFrac: 0.2},
					Access: lsbench.NewGrowingSkew(4, 1.4, 1<<20),
				}, lsbench.NewBursty(5, 400_000, 5, 0.1, 4)),
			},
			{
				Name: "migration",
				Ops:  120_000,
				Source: lsbench.FromSpec(lsbench.WorkloadSpec{
					Mix:        lsbench.Mix{GetFrac: 0.4, PutFrac: 0.6},
					Access:     lsbench.Static{G: lsbench.NewUniform(6, newRegionLo, newRegionLo+lsbench.KeyDomain/8)},
					InsertKeys: lsbench.Static{G: lsbench.NewUniform(7, newRegionLo, newRegionLo+lsbench.KeyDomain/8)},
				}, lsbench.NewDiurnal(8, 500_000, 0.6, 2)),
			},
		},
	}

	runner := lsbench.NewRunner()
	for _, factory := range []func() lsbench.SUT{lsbench.NewALEXSUT, lsbench.NewBTreeSUT} {
		res, err := runner.Run(scenario, factory())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== %s ===\n", res.SUT)
		header := []string{"phase", "ops/s", "p99(ns)"}
		var rows [][]string
		for _, p := range res.Phases {
			rows = append(rows, []string{
				p.Name,
				fmt.Sprintf("%.0f", p.Throughput()),
				fmt.Sprintf("%d", p.Latency.Quantile(0.99)),
			})
		}
		report.Table(w, header, rows)

		// Adaptability metrics around each phase change.
		for i := 1; i < len(res.PhaseStarts); i++ {
			changeAt := res.PhaseStarts[i]
			if d, ok := res.Timeline.AdaptationTime(changeAt, 0.8, 3); ok {
				fmt.Fprintf(w, "adaptation after %q: recovered in %.2fms (dip depth %.0f%%)\n",
					res.Phases[i].Name, float64(d)/1e6, res.Timeline.DipDepth(changeAt)*100)
			} else {
				fmt.Fprintf(w, "adaptation after %q: no recovery within the run (dip depth %.0f%%)\n",
					res.Phases[i].Name, res.Timeline.DipDepth(changeAt)*100)
			}
			adj := metrics.AdjustmentSpeed(res.PostChangeLatencies[i-1], res.SLANs, 2000)
			fmt.Fprintf(w, "adjustment speed (first 2000 ops): %.3fms over SLA\n", float64(adj)/1e6)
		}
		fmt.Fprintf(w, "online training work: %d units\n\n", res.OnlineTrainWork)
		report.BandChart(w, "SLA bands — "+res.SUT, res.Bands, 8)
		fmt.Fprintln(w)
	}
	return nil
}
