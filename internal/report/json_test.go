package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/workload"
)

func jsonScenario(seed uint64) core.Scenario {
	return core.Scenario{
		Name:        "json-test",
		Seed:        seed,
		InitialData: distgen.NewUniform(seed+1, 0, 1<<30),
		InitialSize: 2000,
		TrainBefore: true,
		IntervalNs:  1_000_000,
		Phases: []core.Phase{
			{
				Name: "steady",
				Ops:  5000,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: distgen.NewUniform(seed+2, 0, 1<<30)},
				}, nil),
			},
			{
				Name:          "shift",
				Ops:           5000,
				RetrainBefore: true,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.Balanced,
					Access: distgen.Static{G: distgen.NewZipfKeys(seed+3, 1.1, 1<<20)},
				}, nil),
			},
		},
	}
}

func TestResultJSONDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := core.NewRunner().Run(jsonScenario(11), core.NewRMISUT())
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs marshalled to different JSON")
	}
}

func TestResultJSONContents(t *testing.T) {
	res, err := core.NewRunner().Run(jsonScenario(11), core.NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var v ResultView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}
	if v.Scenario != "json-test" || v.SUT != res.SUT {
		t.Fatalf("identity fields wrong: %+v", v)
	}
	if v.Completed != 10000 {
		t.Fatalf("completed = %d, want 10000", v.Completed)
	}
	if v.Throughput <= 0 || v.DurationNs <= 0 {
		t.Fatalf("throughput/duration not populated: %+v", v)
	}
	if len(v.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(v.Phases))
	}
	if v.Phases[0].Latency.Count != 5000 {
		t.Fatalf("phase latency count = %d", v.Phases[0].Latency.Count)
	}
	if v.Latency.P50Ns <= 0 || v.Latency.P99Ns < v.Latency.P50Ns {
		t.Fatalf("latency digest inconsistent: %+v", v.Latency)
	}
	if len(v.AdjustmentNs) != 1 {
		t.Fatalf("adjustment entries = %d, want 1 (one phase change)", len(v.AdjustmentNs))
	}
	if v.OfflineTrainWork <= 0 {
		t.Fatal("RMI with TrainBefore reported no offline training work")
	}
	if v.SLANs <= 0 {
		t.Fatal("no SLA in view")
	}
}
