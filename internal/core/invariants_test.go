package core

import (
	"testing"
	"testing/quick"

	"repro/internal/distgen"
	"repro/internal/workload"
)

// TestRunnerInvariants property-checks the result object over random
// scenario seeds and SUT choices: every metric family must account for
// exactly the completed operations, regardless of workload.
func TestRunnerInvariants(t *testing.T) {
	factories := []func() SUT{NewBTreeSUT, NewHashSUT, NewRMISUT, NewALEXSUT, NewKVSUTDefault}
	f := func(seed uint64, sutPick uint8, mixPick uint8) bool {
		mixes := []workload.Mix{workload.ReadHeavy, workload.Balanced,
			workload.WriteHeavy, workload.ScanHeavy}
		s := Scenario{
			Name:        "prop",
			Seed:        seed,
			InitialData: distgen.NewZipfKeys(seed+1, 1.05, 1<<20),
			InitialSize: 2000,
			TrainBefore: seed%2 == 0,
			IntervalNs:  100_000,
			Phases: []Phase{
				{
					Name: "a",
					Ops:  1500,
					Source: workload.FromSpec(workload.Spec{
						Mix:    mixes[int(mixPick)%len(mixes)],
						Access: distgen.Static{G: distgen.NewZipfKeys(seed+2, 1.05, 1<<20)},
					}, nil),
				},
				{
					Name: "b",
					Ops:  1500,
					Source: workload.FromSpec(workload.Spec{
						Mix:    mixes[int(mixPick+1)%len(mixes)],
						Access: distgen.NewGrowingSkew(seed+3, 1.3, 1<<16),
					}, workload.NewPoisson(seed+4, 300_000)),
				},
			},
		}
		res, err := NewRunner().Run(s, factories[int(sutPick)%len(factories)]())
		if err != nil {
			return false
		}
		if res.Completed != 3000 {
			return false
		}
		if res.Cumulative.Total() != res.Completed {
			return false
		}
		if res.Latency.Count() != uint64(res.Completed) {
			return false
		}
		var bandTotal, phaseTotal int64
		for _, iv := range res.Bands.Intervals() {
			bandTotal += iv.Completed()
		}
		for _, p := range res.Phases {
			phaseTotal += p.Completed
			if p.EndNs < p.StartNs {
				return false
			}
		}
		if bandTotal != res.Completed || phaseTotal != res.Completed {
			return false
		}
		if res.DurationNs < res.Cumulative.Duration() {
			return false
		}
		return res.SLANs > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
