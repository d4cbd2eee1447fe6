package figures

import (
	"fmt"
	"io"
	"repro/internal/report"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/distgen"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// Fig1dResult carries the throughput-per-cost curves of Figure 1d and the
// headline single-value metrics.
type Fig1dResult struct {
	// LearnedCPU/LearnedGPU are the auto-tuner curves across training
	// budgets, priced on each hardware tier.
	LearnedCPU cost.Curve
	LearnedGPU cost.Curve
	// Traditional is the manual-DBA step function.
	Traditional cost.Curve
	// CostToOutperformCPU is the training cost at which the CPU-tier
	// learned system beats the best tuned traditional configuration
	// (negative if never).
	CostToOutperformCPU float64
	CostToOutperformGPU float64
	// EvalWorkUnits is the training work charged per tuner evaluation.
	EvalWorkUnits int64
}

// kvEvaluator measures the virtual-time throughput of the kv store under
// the given knobs on a fixed mixed workload, also reporting the work a
// single evaluation costs (for training-cost accounting).
func kvEvaluator(scale Scale, seed uint64) (tuner.Evaluator, *int64) {
	var lastWork int64
	eval := func(k kv.Knobs) float64 {
		runner := newRunner(scale)
		scenario := core.Scenario{
			Name:        "fig1d-eval",
			Seed:        seed,
			InitialData: distgen.NewZipfKeys(seed+1, 1.05, 1<<22),
			InitialSize: scale.DataSize / 2,
			IntervalNs:  scale.IntervalNs,
			Phases: []core.Phase{{
				Name: "mixed",
				Ops:  scale.Ops / 2,
				Workload: workload.Spec{
					// Read-mostly with scans: rewards bloom filters,
					// tight compaction, and fine sparse indexes —
					// the directions the DBA script also pushes.
					Mix:    workload.Mix{GetFrac: 0.65, PutFrac: 0.2, ScanFrac: 0.15, ScanLimit: 50},
					Access: distgen.Static{G: distgen.NewZipfKeys(seed+2, 1.05, 1<<22)},
				},
			}},
		}
		res, err := runner.Run(scenario, core.NewKVSUT(k))
		if err != nil {
			return 0
		}
		// One evaluation's training work: the virtual time it consumed,
		// expressed in cost-model work units.
		lastWork = res.DurationNs / sim.DefaultCostModel().PerTrainNs
		return res.Throughput()
	}
	return eval, &lastWork
}

// Fig1dBudgets are the tuner evaluation budgets swept for the learned
// curve.
var Fig1dBudgets = []int{2, 5, 10, 20, 40, 80}

// EvalHoursCPU is the wall-clock cost charged per tuner evaluation on the
// CPU tier: each candidate configuration must replay a representative
// workload window long enough to measure it reliably (OtterTune-style
// tuners report ~5-30 minutes per observation; we charge 30 minutes). The
// in-simulator run stands in for that window; accelerated tiers divide the
// duration by their Speedup, modelling parallel cloud evaluation.
const EvalHoursCPU = 0.5

// Fig1d runs the cost experiment: auto-tuner training curves on CPU and
// GPU tiers versus the manual-DBA step function, under the default cost
// model ($120/h DBA).
func Fig1d(scale Scale, seed uint64) (*Fig1dResult, error) {
	eval, lastWork := kvEvaluator(scale, seed)
	model := cost.DefaultModel()

	// Sanity probe; also captures the per-evaluation simulated work.
	probe := eval(kv.DefaultKnobs())
	if probe <= 0 {
		return nil, fmt.Errorf("figures: fig1d evaluator produced zero throughput")
	}
	out := &Fig1dResult{EvalWorkUnits: *lastWork}

	for _, budget := range Fig1dBudgets {
		r := tuner.HillClimb(eval, kv.DefaultKnobs(), budget, seed+uint64(budget))
		label := fmt.Sprintf("budget=%d", budget)
		work := float64(budget)
		out.LearnedCPU = append(out.LearnedCPU, cost.CurvePoint{
			Dollars:    model.TrainingCost(work, EvalHoursCPU, cost.CPU),
			Throughput: r.BestScore,
			Label:      label + " (cpu)",
		})
		out.LearnedGPU = append(out.LearnedGPU, cost.CurvePoint{
			Dollars:    model.TrainingCost(work, EvalHoursCPU, cost.GPU),
			Throughput: r.BestScore,
			Label:      label + " (gpu)",
		})
	}

	for _, p := range tuner.DBACurve(eval, tuner.DBAScript()) {
		out.Traditional = append(out.Traditional, cost.CurvePoint{
			Dollars:    model.DBACost(p.Hours),
			Throughput: p.Score,
			Label:      p.AfterAction,
		})
	}

	out.CostToOutperformCPU = -1
	if d, _, err := cost.TrainingCostToOutperform(out.LearnedCPU, out.Traditional); err == nil {
		out.CostToOutperformCPU = d
	}
	out.CostToOutperformGPU = -1
	if d, _, err := cost.TrainingCostToOutperform(out.LearnedGPU, out.Traditional); err == nil {
		out.CostToOutperformGPU = d
	}
	return out, nil
}

func renderFig1d(w io.Writer, res *Fig1dResult, csv csvFunc) {
	report.CostPlot(w, "auto-tuned kv store (CPU tier) vs manual DBA",
		res.LearnedCPU, res.Traditional, 80, 16)
	fmt.Fprintln(w)
	report.CostPlot(w, "auto-tuned kv store (GPU tier) vs manual DBA",
		res.LearnedGPU, res.Traditional, 80, 16)
	fmt.Fprintln(w)
	csv("fig1d.csv", func(w io.Writer) { report.CostCSV(w, res.LearnedCPU, res.Traditional) })
}
