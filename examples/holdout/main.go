// Holdout: out-of-sample evaluation per §V-A — systems tune themselves on
// a development scenario, then get exactly one attempt at sealed hold-out
// scenarios. The in-sample/out-of-sample gap exposes overfitting; a second
// attempt is refused, mirroring the benchmark-as-a-service rule.
//
//	go run ./examples/holdout
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	lsbench "repro"
)

func devScenario() lsbench.Scenario {
	return lsbench.Scenario{
		Name:        "dev",
		Seed:        100,
		InitialData: lsbench.NewSequential(1, 1<<20, 64),
		InitialSize: 60_000,
		TrainBefore: true,
		IntervalNs:  500_000,
		Phases: []lsbench.Phase{{
			Name: "dev",
			Ops:  60_000,
			Source: lsbench.FromSpec(lsbench.WorkloadSpec{
				Mix:    lsbench.ReadHeavy,
				Access: lsbench.Static{G: lsbench.NewSequential(2, 1<<20, 64)},
			}, nil),
		}},
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	reg := lsbench.NewHoldoutRegistry()
	// Hold-outs are registered as sealed factories: the SUT owner sees
	// only the names.
	err := reg.Register("holdout-alpha", func() lsbench.Scenario {
		return lsbench.Scenario{
			Name:        "holdout-alpha",
			Seed:        9001,
			InitialData: lsbench.NewClustered(3, 13, float64(lsbench.KeyDomain)/1e5),
			InitialSize: 60_000,
			TrainBefore: true,
			IntervalNs:  500_000,
			Phases: []lsbench.Phase{{
				Name: "alpha",
				Ops:  60_000,
				Source: lsbench.FromSpec(lsbench.WorkloadSpec{
					Mix:    lsbench.ReadHeavy,
					Access: lsbench.Static{G: lsbench.NewClustered(4, 13, float64(lsbench.KeyDomain)/1e5)},
				}, nil),
			}},
		}
	})
	if err != nil {
		return err
	}
	err = reg.Register("holdout-beta", func() lsbench.Scenario {
		return lsbench.Scenario{
			Name: "holdout-beta",
			Seed: 9002,
			InitialData: lsbench.NewMixture(5, []lsbench.Generator{
				lsbench.NewLognormal(6, 1, 1.5, 1e13),
				lsbench.NewEmail(7),
			}, []float64{0.5, 0.5}),
			InitialSize: 60_000,
			TrainBefore: true,
			IntervalNs:  500_000,
			Phases: []lsbench.Phase{{
				Name: "beta",
				Ops:  60_000,
				Source: lsbench.FromSpec(lsbench.WorkloadSpec{
					Mix: lsbench.Mix{GetFrac: 0.6, PutFrac: 0.3, ScanFrac: 0.1, ScanLimit: 50},
					Access: lsbench.NewBlend(8,
						lsbench.NewLognormal(9, 1, 1.5, 1e13),
						lsbench.NewEmail(10)),
				}, nil),
			}},
		}
	})
	if err != nil {
		return err
	}

	runner := lsbench.NewRunner()
	fmt.Fprintf(w, "%-8s %-16s %12s\n", "sut", "scenario", "ops/s")
	for _, factory := range []func() lsbench.SUT{lsbench.NewRMISUT, lsbench.NewBTreeSUT} {
		// In-sample: the development scenario the SUT was tuned on.
		dev, err := runner.Run(devScenario(), factory())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-16s %12.0f\n", dev.SUT, "dev (in-sample)", dev.Throughput())

		for _, name := range []string{"holdout-alpha", "holdout-beta"} {
			res, err := reg.RunOnce(runner, name, factory)
			if err != nil {
				return err
			}
			gap := res.Throughput() / dev.Throughput()
			fmt.Fprintf(w, "%-8s %-16s %12.0f   (%.0f%% of in-sample)\n",
				res.SUT, name, res.Throughput(), gap*100)
		}
	}

	// The single-attempt rule is enforced:
	_, err = reg.RunOnce(runner, "holdout-alpha", lsbench.NewRMISUT)
	if err == nil {
		return errors.New("BUG: second hold-out attempt was allowed")
	}
	fmt.Fprintf(w, "\nsecond attempt refused as required: %v\n", err)
	return nil
}
