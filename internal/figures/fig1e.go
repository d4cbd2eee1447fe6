package figures

import (
	"fmt"
	"io"
	"repro/internal/report"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig1eSUTs is the robustness head-to-head, by catalog name: the
// traditional B+ tree (nothing to retrain — its crash cost is zero)
// against the static learned index (crash-restart wipes its models and
// forces a full retrain).
var fig1eSUTs = []string{"btree", "rmi"}

// Fig1eResult carries the robustness panel: the faulted run per SUT plus
// the fault ledger and recovery view.
type Fig1eResult struct {
	Results  map[string]*core.Result
	Reports  map[string]fault.Report
	Recovery map[string]metrics.RecoveryStats
	// Specs records the fault plan each SUT ran under (canonical
	// fault.ParseSpec form).
	Specs map[string]string
	// BaselineNs is each SUT's fault-free run duration — the timebase the
	// default plan's windows are derived from.
	BaselineNs map[string]int64
}

// Fig1e runs the robustness experiment ("Fig 1e"): each SUT executes the
// same steady workload twice — once clean, once under a seeded fault
// plan — and the recovery view measures how deep the system degraded and
// how quickly it returned to its pre-fault SLA band.
//
// The plan is derived from the SUT's own baseline duration D: a slow-ops
// window over [15%, 25%]·D (8x work), a crash-restart at 35%·D (learned
// state wiped, retraining forced), and a full error outage over
// [55%, 65%]·D — leaving the last third of the run for recovery
// measurement. A custom plan runs through lsbench -faults instead.
func Fig1e(scale Scale, seed uint64) (*Fig1eResult, error) {
	names := fig1eSUTs

	scenario := core.Scenario{
		Name:        "fig1e-robustness",
		Seed:        seed,
		InitialData: distgen.NewUniform(seed+1, 0, distgen.KeyDomain),
		InitialSize: scale.DataSize,
		TrainBefore: true,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{{
			Name: "steady",
			Ops:  scale.Ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.ReadHeavy,
				Access: distgen.Static{G: distgen.NewZipfKeys(seed+2, 1.1, 1<<21)},
			}, nil),
		}},
	}
	scenario = scenario.Materialize()

	res := &Fig1eResult{
		Results:    make(map[string]*core.Result, len(names)),
		Reports:    make(map[string]fault.Report, len(names)),
		Recovery:   make(map[string]metrics.RecoveryStats, len(names)),
		Specs:      make(map[string]string, len(names)),
		BaselineNs: make(map[string]int64, len(names)),
	}
	type perSUT struct {
		result     *core.Result
		report     fault.Report
		recovery   metrics.RecoveryStats
		spec       string
		baselineNs int64
	}
	out := make([]perSUT, len(names))
	err := par.ForEach(len(names), scale.Parallel, func(i int) error {
		name := names[i]
		newSUT, err := core.SUTByName(name, pager.DefaultPoolKnobs())
		if err != nil {
			return fmt.Errorf("figures: fig1e: %w", err)
		}

		// Clean baseline: fixes the duration timebase for the derived
		// plan and the SLA band the recovery must return to.
		base := newRunner(scale)
		baseRes, err := base.Run(scenario, newSUT())
		if err != nil {
			return fmt.Errorf("figures: fig1e baseline %s: %w", name, err)
		}

		plan := fig1ePlan(seed, baseRes.DurationNs)

		// Faulted run: the injector rides the run's own virtual clock via
		// the runner's WrapSUT hook.
		var inj *fault.Injector
		faulted := newRunner(scale)
		faulted.WrapSUT = func(s core.SUT, clock sim.Clock) core.SUT {
			inj = fault.NewInjector(plan, clock)
			return fault.Wrap(s, inj)
		}
		fRes, err := faulted.Run(scenario, newSUT())
		if err != nil {
			return fmt.Errorf("figures: fig1e faulted %s: %w", name, err)
		}

		start, end, ok := plan.OpFaultSpan()
		if !ok {
			start, end = 0, 0
		}
		out[i] = perSUT{
			result:     fRes,
			report:     inj.Report(),
			recovery:   fRes.Snapshot.Recovery(start, end, 0),
			spec:       plan.String(),
			baselineNs: baseRes.DurationNs,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		res.Results[name] = out[i].result
		res.Reports[name] = out[i].report
		res.Recovery[name] = out[i].recovery
		res.Specs[name] = out[i].spec
		res.BaselineNs[name] = out[i].baselineNs
	}
	return res, nil
}

// fig1ePlan is the default schedule derived from the baseline duration.
func fig1ePlan(seed uint64, baselineNs int64) fault.Plan {
	d := baselineNs
	return fault.Plan{
		Seed: seed,
		Windows: []fault.Window{
			{Kind: fault.SlowOps, StartNs: d * 15 / 100, EndNs: d * 25 / 100, Factor: 8},
			{Kind: fault.CrashRestart, StartNs: d * 35 / 100},
			{Kind: fault.ErrorOps, StartNs: d * 55 / 100, EndNs: d * 65 / 100},
		},
	}
}

func renderFig1e(w io.Writer, res *Fig1eResult, csv csvFunc) {
	for _, sut := range report.SortedKeys(res.Results) {
		rec := res.Recovery[sut]
		rep := res.Reports[sut]
		fmt.Fprintf(w, "%s under %q (baseline %.3fms clean run):\n",
			sut, res.Specs[sut], float64(res.BaselineNs[sut])/1e6)
		report.RobustnessPanel(w, "  robustness", res.Results[sut].Snapshot, rec)
		fmt.Fprintf(w, "  fault ledger        slowed %d, failed %d, crashes %d (retrain work %d)\n\n",
			rep.SlowedOps, rep.FailedOps, rep.Crashes, rep.CrashRetrainWork)
	}
	csv("fig1e.csv", func(w io.Writer) {
		fmt.Fprintln(w, "sut,availability,failed_ops,error_budget_burn,baseline_violation_rate,peak_violation_rate,time_to_recover_ns,recovered,crashes,crash_retrain_work")
		for _, sut := range report.SortedKeys(res.Results) {
			rec := res.Recovery[sut]
			rep := res.Reports[sut]
			fmt.Fprintf(w, "%s,%.6f,%d,%.4f,%.6f,%.6f,%d,%t,%d,%d\n",
				sut, rec.Availability, rec.FailedOps, rec.ErrorBudgetBurn,
				rec.BaselineViolationRate, rec.PeakViolationRate,
				rec.TimeToRecoverNs, rec.Recovered, rep.Crashes, rep.CrashRetrainWork)
		}
	})
}
