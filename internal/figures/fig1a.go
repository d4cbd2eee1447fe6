// Package figures implements the paper's evaluation artifacts end to end:
// each panel function (Fig1a, Fig1b, …) builds the workloads, runs the
// systems under test on the virtual clock, and returns the exact data
// series of the corresponding panel of Figure 1 (plus the Lesson
// ablations) for the root bench harness. Panels pairs each with the
// renderer of its stdout section and CSV files, which cmd/figures runs.
package figures

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/similarity"
	"repro/internal/workload"
)

// Scale controls experiment size so the same code serves quick tests and
// full runs.
type Scale struct {
	// DataSize is the initial database size per scenario.
	DataSize int
	// Ops is the operation count per phase.
	Ops int
	// IntervalNs is the reporting interval.
	IntervalNs int64
	// Parallel bounds how many independent scenario×SUT runs execute
	// concurrently (0 = runtime.GOMAXPROCS(0), 1 = serial). Every run
	// replays materialized inputs with its own seeded generators, so
	// results are bit-identical at any setting.
	Parallel int
}

// SmallScale keeps experiments under a second for tests.
func SmallScale() Scale { return Scale{DataSize: 20000, Ops: 10000, IntervalNs: 200_000} }

// FullScale is used by cmd/figures and the bench harness.
func FullScale() Scale { return Scale{DataSize: 200000, Ops: 100000, IntervalNs: 1_000_000} }

// DistCase is one workload/data distribution of the Figure 1a sweep.
type DistCase struct {
	Name    string
	Gen     func(seed uint64) distgen.Generator
	Holdout bool
}

// Fig1aCases returns the standard distribution sweep: the uniform baseline
// plus progressively stranger distributions, and one hold-out the SUTs see
// exactly once.
func Fig1aCases() []DistCase {
	return []DistCase{
		{Name: "uniform", Gen: func(s uint64) distgen.Generator {
			return distgen.NewUniform(s, 0, distgen.KeyDomain)
		}},
		{Name: "sequential", Gen: func(s uint64) distgen.Generator {
			return distgen.NewSequential(s, 1<<20, 64)
		}},
		{Name: "normal", Gen: func(s uint64) distgen.Generator {
			return distgen.NewNormal(s, float64(distgen.KeyDomain)/2, float64(distgen.KeyDomain)/64)
		}},
		{Name: "lognormal", Gen: func(s uint64) distgen.Generator {
			return distgen.NewLognormal(s, 0, 2, 1e12)
		}},
		{Name: "zipf", Gen: func(s uint64) distgen.Generator {
			return distgen.NewZipfKeys(s, 1.1, 1<<22)
		}},
		{Name: "clustered-osm", Gen: func(s uint64) distgen.Generator {
			return distgen.NewClustered(s, 40, float64(distgen.KeyDomain)/1e6)
		}},
		{Name: "segmented-books", Gen: func(s uint64) distgen.Generator {
			return distgen.NewSegmented(s, 32)
		}},
		{Name: "email", Gen: func(s uint64) distgen.Generator {
			return distgen.NewEmail(s)
		}},
		{Name: "holdout-mix", Holdout: true, Gen: func(s uint64) distgen.Generator {
			return distgen.NewMixture(s, []distgen.Generator{
				distgen.NewClustered(s+1, 7, float64(distgen.KeyDomain)/1e5),
				distgen.NewLognormal(s+2, 1, 1.5, 1e13),
			}, []float64{0.6, 0.4})
		}},
	}
}

// Fig1aResult maps SUT name -> box rows sorted by Φ, plus the raw Φ values
// per distribution.
type Fig1aResult struct {
	Rows map[string][]report.BoxRow
	Phi  map[string]float64
}

// Fig1a runs the specialization experiment: every SUT on every
// distribution, reporting per-interval throughput box statistics with the
// X-axis position given by the KS distance Φ from the uniform baseline.
func Fig1a(scale Scale, seed uint64) (*Fig1aResult, error) {
	cases := Fig1aCases()
	runner := newRunner(scale)

	// Φ: KS distance of each distribution's key sample from the baseline.
	base := distgen.Keys(cases[0].Gen(seed+1000), 4096)
	phi := make(map[string]float64, len(cases))
	for _, c := range cases {
		phi[c.Name] = similarity.KS(base, distgen.Keys(c.Gen(seed+2000), 4096))
	}

	// Each case builds its own seeded generators and scenario, so the
	// sweep fans out; results are collected by case index and appended in
	// declaration order, keeping the rows identical to a serial sweep.
	perCase := make([][]*core.Result, len(cases))
	err := par.ForEach(len(cases), scale.Parallel, func(i int) error {
		c := cases[i]
		scenario := core.Scenario{
			Name:        "fig1a-" + c.Name,
			Seed:        seed,
			InitialData: c.Gen(seed + 1),
			InitialSize: scale.DataSize,
			TrainBefore: true,
			IntervalNs:  scale.IntervalNs,
			Phases: []core.Phase{{
				Name: "steady",
				Ops:  scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: c.Gen(seed + 2)},
				}, nil),
			}},
		}
		results, err := runner.RunAll(scenario, core.StandardSUTs())
		if err != nil {
			return fmt.Errorf("figures: fig1a %s: %w", c.Name, err)
		}
		perCase[i] = results
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig1aResult{Rows: make(map[string][]report.BoxRow), Phi: phi}
	for i, c := range cases {
		for _, r := range perCase[i] {
			res.Rows[r.SUT] = append(res.Rows[r.SUT], report.BoxRow{
				Label:   c.Name,
				Phi:     phi[c.Name],
				Summary: r.Bands.ThroughputSummary(),
				Holdout: c.Holdout,
			})
		}
	}
	return res, nil
}

func renderFig1a(w io.Writer, res *Fig1aResult, csv csvFunc) {
	for _, sut := range report.SortedKeys(res.Rows) {
		report.BoxPlot(w,
			fmt.Sprintf("%s: per-interval throughput by distribution (phi = KS distance from uniform)", sut),
			res.Rows[sut], 64)
		fmt.Fprintln(w)
		csv("fig1a-"+sut+".csv", func(w io.Writer) { report.BoxCSV(w, res.Rows[sut]) })
	}
}
