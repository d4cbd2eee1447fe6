package lsbench

import (
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	scenario := Scenario{
		Name:        "facade",
		Seed:        42,
		InitialData: NewZipfKeys(1, 1.1, 1<<22),
		InitialSize: 10_000,
		TrainBefore: true,
		IntervalNs:  200_000,
		Phases: []Phase{{
			Name: "steady",
			Ops:  5_000,
			Source: FromSpec(WorkloadSpec{
				Mix:    ReadHeavy,
				Access: Static{G: NewZipfKeys(2, 1.1, 1<<22)},
			}, nil),
		}},
	}
	for _, factory := range StandardSUTs() {
		res, err := NewRunner().Run(scenario, factory())
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 5000 || res.Throughput() <= 0 {
			t.Fatalf("%s: completed=%d", res.SUT, res.Completed)
		}
	}
}

func TestFacadeDriftingScenario(t *testing.T) {
	scenario := Scenario{
		Name:        "drifting",
		Seed:        7,
		InitialData: NewUniform(1, 0, KeyDomain),
		InitialSize: 5_000,
		IntervalNs:  200_000,
		Phases: []Phase{{
			Name: "drift",
			Ops:  5_000,
			Source: FromSpec(WorkloadSpec{
				Mix: Balanced,
				Access: NewBlend(2,
					NewUniform(3, 0, KeyDomain/2),
					NewClustered(4, 10, 1e9)),
			}, NewDiurnal(5, 500_000, 0.5, 2)),
		}},
	}
	res, err := NewRunner().Run(scenario, NewALEXSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bands.SLA() <= 0 {
		t.Fatal("no SLA")
	}
}

func TestFacadeHoldout(t *testing.T) {
	reg := NewHoldoutRegistry()
	if err := reg.Register("h1", func() Scenario {
		return Scenario{
			Name:        "h1",
			Seed:        9,
			InitialData: NewSegmented(10, 8),
			InitialSize: 2_000,
			Phases: []Phase{{
				Name: "p",
				Ops:  1_000,
				Source: FromSpec(WorkloadSpec{
					Mix:    ReadHeavy,
					Access: Static{G: NewSegmented(11, 8)},
				}, nil),
			}},
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RunOnce(NewRunner(), "h1", NewRMISUT); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RunOnce(NewRunner(), "h1", NewRMISUT); err == nil {
		t.Fatal("second hold-out attempt allowed")
	}
}
