package lsbench_test

import (
	"fmt"

	lsbench "repro"
)

// ExampleRunner_Run benchmarks the learned RMI index on a stable zipfian
// read workload and prints the training-inclusive headline numbers. All
// runs are deterministic given the scenario seed.
func ExampleRunner_Run() {
	scenario := lsbench.Scenario{
		Name:        "example",
		Seed:        1,
		InitialData: lsbench.NewSequential(1, 1<<20, 64),
		InitialSize: 20_000,
		TrainBefore: true,
		IntervalNs:  1_000_000,
		Phases: []lsbench.Phase{{
			Name: "reads",
			Ops:  10_000,
			Source: lsbench.FromSpec(lsbench.WorkloadSpec{
				Mix:    lsbench.ReadHeavy,
				Access: lsbench.Static{G: lsbench.NewSequential(2, 1<<20, 64)},
			}, nil),
		}},
	}
	res, err := lsbench.NewRunner().Run(scenario, lsbench.NewRMISUT())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("sut=%s completed=%d models=%d trained=%v\n",
		res.SUT, res.Completed, res.Models, res.OfflineTrainWork > 0)
	// Output:
	// sut=rmi completed=10000 models=1025 trained=true
}

// ExampleHoldoutRegistry demonstrates the run-once out-of-sample rule of
// §V-A: the second attempt at a hold-out is refused.
func ExampleHoldoutRegistry() {
	reg := lsbench.NewHoldoutRegistry()
	_ = reg.Register("sealed", func() lsbench.Scenario {
		return lsbench.Scenario{
			Name:        "sealed",
			Seed:        2,
			InitialData: lsbench.NewUniform(3, 0, lsbench.KeyDomain),
			InitialSize: 1_000,
			Phases: []lsbench.Phase{{
				Name: "p",
				Ops:  500,
				Source: lsbench.FromSpec(lsbench.WorkloadSpec{
					Mix:    lsbench.ReadHeavy,
					Access: lsbench.Static{G: lsbench.NewUniform(4, 0, lsbench.KeyDomain)},
				}, nil),
			}},
		}
	})
	r := lsbench.NewRunner()
	if _, err := reg.RunOnce(r, "sealed", lsbench.NewBTreeSUT); err == nil {
		fmt.Println("first attempt: ok")
	}
	if _, err := reg.RunOnce(r, "sealed", lsbench.NewBTreeSUT); err != nil {
		fmt.Println("second attempt: refused")
	}
	// Output:
	// first attempt: ok
	// second attempt: refused
}
