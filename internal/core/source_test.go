package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/report"
	"repro/internal/workload"
)

// oneStreamScenario is one phase of drifting access under a Poisson
// arrival, segmented into sessions by the runner. viaSource gives the phase
// as Source: workload.FromSpec(spec, arrival); otherwise it fills the
// Workload and Arrival fields that benchmark/ still builds its phases with.
// Each call draws fresh generators from the same seeds.
func oneStreamScenario(viaSource bool) core.Scenario {
	spec := workload.Spec{
		Mix: workload.Mix{GetFrac: 0.5, PutFrac: 0.3, DeleteFrac: 0.1, ScanFrac: 0.1, ScanLimit: 20},
		Access: distgen.NewBlend(3,
			distgen.NewUniform(4, 0, 1<<40), distgen.NewClustered(5, 8, 1e9)),
		InsertKeys: distgen.Static{G: distgen.NewUniform(6, 1<<40, 1<<41)},
	}
	arrival := workload.NewPoisson(7, 400_000)
	ph := core.Phase{Name: "drift", Ops: 3000}
	if viaSource {
		ph.Source = workload.FromSpec(spec, arrival)
	} else {
		ph.Workload, ph.Arrival = spec, arrival
	}
	return core.Scenario{
		Name: "one-stream", Seed: 11, TrainBefore: true,
		InitialData: distgen.NewUniform(12, 0, 1<<40), InitialSize: 3000,
		IntervalNs: 100_000,
		Session:    &workload.SessionSpec{GapNs: 5_000, BudgetNs: 20_000},
		Phases:     []core.Phase{ph},
	}
}

// TestSpecAndSourceAreOneStream: a phase given by its Workload and Arrival
// fields and the same phase given as a FromSpec source issue one op/gap
// stream and produce one result, whether the scenario runs live (Run),
// is pinned and written down (Materialize, Trace) or is compared across
// SUTs (RunAll). It keeps the fields benchmark/ reads covered until they go.
func TestSpecAndSourceAreOneStream(t *testing.T) {
	marshal := func(r *core.Result) []byte {
		t.Helper()
		data, err := report.MarshalResult(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	fields, err := oneStreamScenario(false).Materialize().Trace()
	if err != nil {
		t.Fatal(err)
	}
	source, err := oneStreamScenario(true).Materialize().Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fields, source) {
		t.Fatal("Materialize: the two phases pinned different op/gap streams")
	}
	sessions := 0
	for _, gap := range source.Phases[0].Gaps {
		if gap >= 5_000 {
			sessions++
		}
	}
	if sessions == 0 {
		t.Fatal("no gap opens a session: the session spec is not exercised")
	}

	for _, f := range []func() core.SUT{core.NewBTreeSUT, core.NewALEXSUT} {
		a, err := core.NewRunner().Run(oneStreamScenario(false), f())
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.NewRunner().Run(oneStreamScenario(true), f())
		if err != nil {
			t.Fatal(err)
		}
		if a.Sessions == nil {
			t.Fatalf("%s: Run kept no session stats", a.SUT)
		}
		if !bytes.Equal(marshal(a), marshal(b)) {
			t.Fatalf("%s: Run results differ:\n%s\n%s", a.SUT, marshal(a), marshal(b))
		}
	}

	factories := []func() core.SUT{core.NewBTreeSUT, core.NewRMISUT, core.NewALEXSUT}
	as, err := core.NewRunner().RunAll(oneStreamScenario(false), factories)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := core.NewRunner().RunAll(oneStreamScenario(true), factories)
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if !bytes.Equal(marshal(as[i]), marshal(bs[i])) {
			t.Fatalf("%s: RunAll results differ", as[i].SUT)
		}
	}
}
