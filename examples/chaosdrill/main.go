// Chaos drill: measure how learned and traditional indexes degrade and
// recover under a deterministic fault schedule.
//
// Each SUT is wrapped with a fault injector on the run's own virtual
// clock: a slow-I/O window, a crash-restart that wipes learned state
// mid-run (the RMI must retrain; the B+ tree has nothing to relearn), and
// a full error outage. Identical seeds reproduce identical faults, so the
// recovery numbers are exact, not sampled.
//
//	go run ./examples/chaosdrill
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/report"
	"repro/internal/sim"

	lsbench "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	scenario := lsbench.Scenario{
		Name:        "chaosdrill",
		Seed:        42,
		InitialData: lsbench.NewUniform(1, 0, lsbench.KeyDomain),
		InitialSize: 50_000,
		TrainBefore: true,
		IntervalNs:  500_000,
		Phases: []lsbench.Phase{{
			Name: "steady",
			Ops:  100_000,
			Source: lsbench.FromSpec(lsbench.WorkloadSpec{
				Mix:    lsbench.ReadHeavy,
				Access: lsbench.Static{G: lsbench.NewZipfKeys(2, 1.1, 1<<21)},
			}, nil),
		}},
	}

	fmt.Fprintln(w, "=== chaos drill: virtual clock, deterministic faults ===")
	for _, factory := range []func() lsbench.SUT{lsbench.NewRMISUT, lsbench.NewBTreeSUT} {
		// Clean baseline: fixes the timebase the fault schedule is cut
		// from and the SLA band recovery is measured against.
		clean, err := lsbench.NewRunner().Run(scenario, factory())
		if err != nil {
			return err
		}
		d := time.Duration(clean.DurationNs)

		// The drill: slow I/O at 15-25%, crash at 35%, outage at 55-65%.
		spec := fmt.Sprintf("slow@%v-%v:factor=8;crash@%v;error@%v-%v",
			d*15/100, d*25/100, d*35/100, d*55/100, d*65/100)
		plan, err := lsbench.ParseFaultSpec(spec, scenario.Seed)
		if err != nil {
			return err
		}

		var inj *lsbench.FaultInjector
		runner := lsbench.NewRunner()
		runner.WrapSUT = func(s lsbench.SUT, clock sim.Clock) lsbench.SUT {
			inj = lsbench.NewFaultInjector(plan, clock)
			return lsbench.WithFaults(s, inj)
		}
		res, err := runner.Run(scenario, factory())
		if err != nil {
			return err
		}

		start, end, _ := plan.OpFaultSpan()
		rec := res.Snapshot.Recovery(start, end)
		report.RobustnessPanel(w, res.SUT, res.Snapshot, rec)
		rep := inj.Report()
		fmt.Fprintf(w, "  faults         %d slowed, %d failed, %d crash(es), retrain work %d\n\n",
			rep.SlowedOps, rep.FailedOps, rep.Crashes, rep.CrashRetrainWork)
	}
	return nil
}
