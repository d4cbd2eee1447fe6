package figures

import (
	"fmt"
	"io"
	"repro/internal/report"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig1bResult carries the cumulative-queries curves of Figure 1b for the
// compared SUTs, plus the single-value area scores the paper derives.
type Fig1bResult struct {
	Labels []string
	Curves []*metrics.CumCurve
	// AreaVsIdeal per SUT, and the pairwise area difference of the first
	// two SUTs (learned vs traditional).
	AreaVsIdeal map[string]float64
	AreaBetween float64
	PhaseStarts []int64
	FullResults []*core.Result
}

// fig1bScenario is a run with a mid-run abrupt distribution shift plus an
// insert flood into a new key region — the situation where a learned
// system "starts slow and later catches up" while adaptation costs show as
// slope changes. arrival paces phase i (nil means closed loop).
func fig1bScenario(scale Scale, seed uint64, arrival func(i int) workload.Arrival) core.Scenario {
	if arrival == nil {
		arrival = func(int) workload.Arrival { return nil }
	}
	oldRegion := func(s uint64) distgen.Generator {
		return distgen.NewUniform(s, 0, distgen.KeyDomain/4)
	}
	newRegion := func(s uint64) distgen.Generator {
		return distgen.NewClustered(s, 20, float64(distgen.KeyDomain)/1e6)
	}
	return core.Scenario{
		Name:        "fig1b-shift",
		Seed:        seed,
		InitialData: oldRegion(seed + 1),
		InitialSize: scale.DataSize,
		TrainBefore: true,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{
			{
				Name: "steady-old",
				Ops:  scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: oldRegion(seed + 2)},
				}, arrival(0)),
			},
			{
				Name: "shifted-new",
				Ops:  scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					// The new region arrives as an insert flood with
					// interleaved reads — the learned index must
					// re-learn its CDF mid-phase.
					Mix:        workload.Mix{GetFrac: 0.3, PutFrac: 0.7},
					Access:     distgen.Static{G: newRegion(seed + 3)},
					InsertKeys: distgen.Static{G: newRegion(seed + 4)},
				}, arrival(1)),
			},
			{
				Name: "settled-new",
				Ops:  scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: newRegion(seed + 5)},
				}, arrival(2)),
			},
		},
	}
}

// fig1bBuildServeScenario reproduces the paper's Figure 1b narrative —
// "the SUT starts slow and later catches up": the run begins with an
// insert flood into a small database (the learned index repeatedly pays
// delta merges and retrains while learning the distribution) and then
// serves the read workload it trained for.
func fig1bBuildServeScenario(scale Scale, seed uint64) core.Scenario {
	region := func(s uint64) distgen.Generator {
		return distgen.NewClustered(s, 20, float64(distgen.KeyDomain)/1e6)
	}
	return core.Scenario{
		Name:        "fig1b-build-serve",
		Seed:        seed,
		InitialData: region(seed + 1),
		InitialSize: scale.DataSize / 10,
		TrainBefore: true,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{
			{
				Name: "build",
				Ops:  scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					Mix:        workload.Mix{GetFrac: 0.1, PutFrac: 0.9},
					Access:     distgen.Static{G: region(seed + 2)},
					InsertKeys: distgen.Static{G: region(seed + 3)},
				}, nil),
			},
			{
				Name: "serve",
				Ops:  2 * scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: region(seed + 4)},
				}, nil),
			},
		},
	}
}

// Fig1b runs the cumulative-queries experiment comparing the static
// learned index (RMI) against the traditional B+ tree.
func Fig1b(scale Scale, seed uint64) (*Fig1bResult, error) {
	runner := newRunner(scale)
	scenario := fig1bBuildServeScenario(scale, seed)
	results, err := runner.RunAll(scenario, []func() core.SUT{core.NewRMISUT, core.NewBTreeSUT})
	if err != nil {
		return nil, fmt.Errorf("figures: fig1b: %w", err)
	}
	out := &Fig1bResult{AreaVsIdeal: make(map[string]float64), FullResults: results}
	for _, r := range results {
		out.Labels = append(out.Labels, r.SUT)
		out.Curves = append(out.Curves, r.Cumulative)
		out.AreaVsIdeal[r.SUT] = r.Cumulative.AreaVsIdeal()
	}
	out.AreaBetween = metrics.AreaBetween(out.Curves[0], out.Curves[1])
	out.PhaseStarts = results[0].PhaseStarts
	return out, nil
}

// Fig1cResult carries the SLA-band data of Figure 1c per SUT plus the
// adjustment-speed single-value metric.
type Fig1cResult struct {
	// Bands per SUT name.
	Bands map[string]*metrics.BandTracker
	// AdjustmentSpeed per SUT: sum of over-SLA time over the first N
	// queries after the distribution change (ns).
	AdjustmentSpeed map[string]int64
	// SLA threshold per SUT (ns), calibrated per the paper's rule.
	SLANs map[string]int64
	// ViolationRate per SUT.
	ViolationRate map[string]float64
	FullResults   []*core.Result
}

// Fig1c runs the SLA-violation experiment: a diurnal open-loop arrival
// process over a run with an abrupt shift; latency bands expose how each
// SUT's adaptation disrupts service.
func Fig1c(scale Scale, seed uint64) (*Fig1cResult, error) {
	runner := newRunner(scale)
	// The adjustment-speed metric integrates over-SLA time across the
	// whole post-change phase so slow-burn adaptation (a delta merge
	// thousands of ops after the shift) is not missed.
	runner.PostChangeN = scale.Ops
	// An open loop at ~70% of closed-loop capacity with diurnal swings:
	// adaptation pauses now queue work and violate SLAs realistically.
	scenario := fig1bScenario(scale, seed, func(i int) workload.Arrival {
		return workload.NewDiurnal(seed+uint64(i), 600_000, 0.5, 2)
	})
	scenario.Name = "fig1c-sla"
	results, err := runner.RunAll(scenario,
		[]func() core.SUT{core.NewRMISUT, core.NewALEXSUT, core.NewBTreeSUT})
	if err != nil {
		return nil, fmt.Errorf("figures: fig1c: %w", err)
	}
	out := &Fig1cResult{
		Bands:           make(map[string]*metrics.BandTracker),
		AdjustmentSpeed: make(map[string]int64),
		SLANs:           make(map[string]int64),
		ViolationRate:   make(map[string]float64),
		FullResults:     results,
	}
	for _, r := range results {
		out.Bands[r.SUT] = r.Bands
		out.SLANs[r.SUT] = r.SLANs
		out.ViolationRate[r.SUT] = r.Bands.ViolationRate()
		if len(r.PostChangeLatencies) > 0 {
			pl := r.PostChangeLatencies[0]
			out.AdjustmentSpeed[r.SUT] = metrics.AdjustmentSpeed(pl, r.SLANs, len(pl))
		}
	}
	return out, nil
}

func renderFig1b(w io.Writer, res *Fig1bResult, csv csvFunc) {
	report.CumulativePlot(w, "build-then-serve: learned (rmi) vs traditional (btree)",
		res.Labels, res.Curves, 100, 18)
	fmt.Fprintln(w)
	csv("fig1b.csv", func(w io.Writer) { report.CumulativeCSV(w, res.Labels, res.Curves, 500) })
}

func renderFig1c(w io.Writer, res *Fig1cResult, csv csvFunc) {
	for _, sut := range report.SortedKeys(res.Bands) {
		report.BandChart(w, "SLA bands — "+sut, res.Bands[sut], 10)
		fmt.Fprintf(w, "adjustment speed (over-SLA time after change): %.3fms; violation rate %.2f%%\n\n",
			float64(res.AdjustmentSpeed[sut])/1e6, res.ViolationRate[sut]*100)
		csv("fig1c-"+sut+".csv", func(w io.Writer) { report.BandCSV(w, res.Bands[sut]) })
	}
}
