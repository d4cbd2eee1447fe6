package fault

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// faultScenario is a small single-phase scenario on the virtual clock,
// materialized so repeated runs replay identical inputs.
func faultScenario(ops int) core.Scenario {
	s := core.Scenario{
		Name:        "fault-quick",
		Seed:        7,
		InitialData: distgen.NewUniform(8, 0, 1<<40),
		InitialSize: 5000,
		TrainBefore: true,
		IntervalNs:  100_000,
		Phases: []core.Phase{{
			Name: "steady",
			Ops:  ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.ReadHeavy,
				Access: distgen.Static{G: distgen.NewUniform(9, 0, 1<<40)},
			}, nil),
		}},
	}
	return s.Materialize()
}

// runWith executes the scenario with the given plan wrapped around the SUT
// (nil windows = no injector at all) and returns the result JSON plus the
// injector's ledger.
func runWith(t *testing.T, scenario core.Scenario, sut core.SUT, plan *Plan, batch int) ([]byte, Report) {
	t.Helper()
	r := core.NewRunner()
	r.Batch = batch
	var inj *Injector
	if plan != nil {
		r.WrapSUT = func(s core.SUT, clock sim.Clock) core.SUT {
			inj = NewInjector(*plan, clock)
			return Wrap(s, inj)
		}
	}
	res, err := r.Run(scenario, sut)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if inj != nil {
		rep = inj.Report()
	}
	return data, rep
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "slow@10ms-20ms:factor=8,rate=0.5;crash@35ms;error@55ms-65ms;drop@1ms-2ms:rate=0.25;delay@3ms-4ms:delay=500us"
	p, err := ParseSpec(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Windows) != 5 {
		t.Fatalf("parsed plan: seed=%d windows=%d", p.Seed, len(p.Windows))
	}
	// String() is canonical and re-parses to the same plan.
	s1 := p.String()
	p2, err := ParseSpec(s1, 42)
	if err != nil {
		t.Fatalf("canonical spec %q does not re-parse: %v", s1, err)
	}
	if s2 := p2.String(); s1 != s2 {
		t.Fatalf("round trip unstable:\n  %s\n  %s", s1, s2)
	}
	// Each kind alone: an in-process run refuses the wire kinds (drop,
	// delay) with an error naming the kind and accepts the op kinds.
	for _, w := range p.Windows {
		err := Plan{Windows: []Window{w}}.CheckInProcess()
		if w.Kind == WireDrop || w.Kind == WireDelay {
			if err == nil || !strings.Contains(err.Error(), w.Kind.String()) {
				t.Errorf("%s: CheckInProcess = %v, want a refusal naming the kind", w.Kind, err)
			}
		} else if err != nil {
			t.Errorf("%s: CheckInProcess = %v, want nil", w.Kind, err)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	p, err := ParseSpec("error@1ms-2ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Windows[0]
	if w.rate() != 1 {
		t.Fatalf("default rate = %v, want 1", w.rate())
	}
	p, err = ParseSpec("slow@1ms-2ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Windows[0].factor(); f != 4 {
		t.Fatalf("default slow factor = %v, want 4", f)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"bogus@1ms-2ms",          // unknown kind
		"slow@2ms-1ms",           // end before start
		"slow@1ms",               // windowed kind needs an end
		"crash@1ms-2ms",          // crash is a point event
		"error@1ms-2ms:rate=2",   // rate out of range
		"slow@1ms-2ms:factor=0",  // factor must be >= 1
		"delay@1ms-2ms:delay=-1", // bad duration
		"slow@1ms-2ms:wat=1",     // unknown param
		"@1ms-2ms",               // missing kind
		"slow",                   // missing window
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", spec)
		}
	}
	if p, err := ParseSpec("", 1); err != nil || !p.Empty() {
		t.Errorf("empty spec: plan=%+v err=%v, want empty plan", p, err)
	}
}

// TestZeroPlanByteIdentity is the acceptance golden: wrapping a SUT with an
// all-zero fault plan must be byte-identical to no injector at all, at
// every dispatch batch size.
func TestZeroPlanByteIdentity(t *testing.T) {
	scenario := faultScenario(4000)
	for _, batch := range []int{0, 1, 7, 64} {
		bare, _ := runWith(t, scenario, core.NewRMISUT(), nil, batch)
		empty := Plan{Seed: 99}
		wrapped, rep := runWith(t, scenario, core.NewRMISUT(), &empty, batch)
		if !bytes.Equal(bare, wrapped) {
			t.Fatalf("batch=%d: zero-plan run differs from bare run", batch)
		}
		if rep.SlowedOps != 0 || rep.FailedOps != 0 || rep.Crashes != 0 {
			t.Fatalf("batch=%d: zero plan produced faults: %+v", batch, rep)
		}
	}
}

// TestDeterminism: same plan + seed ⇒ byte-identical result JSON and an
// identical fault ledger, across batch sizes too.
func TestDeterminism(t *testing.T) {
	scenario := faultScenario(6000)
	plan, err := ParseSpec("slow@0.05ms-0.2ms:factor=6;error@0.25ms-0.4ms:rate=0.5;crash@0.5ms", 1234)
	if err != nil {
		t.Fatal(err)
	}

	a, repA := runWith(t, scenario, core.NewRMISUT(), &plan, 0)
	b, repB := runWith(t, scenario, core.NewRMISUT(), &plan, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("identical plan+seed produced different result JSON")
	}
	if repA != repB {
		t.Fatalf("fault ledgers differ:\n  %+v\n  %+v", repA, repB)
	}
	if repA.SlowedOps == 0 || repA.FailedOps == 0 || repA.Crashes != 1 {
		t.Fatalf("plan did not bite: %+v", repA)
	}

	// Batched dispatch is deterministic too (ops within a batch share a
	// clock reading, so the stream differs from unbatched — but two runs
	// at the same batch size must agree exactly).
	c, repC := runWith(t, scenario, core.NewRMISUT(), &plan, 32)
	d, repD := runWith(t, scenario, core.NewRMISUT(), &plan, 32)
	if !bytes.Equal(c, d) {
		t.Fatal("batch=32 faulted runs disagree with each other")
	}
	if repC != repD {
		t.Fatalf("batched ledgers differ: %+v vs %+v", repC, repD)
	}

	// A different seed perturbs which ops the probabilistic window hits.
	plan2 := plan
	plan2.Seed = 4321
	_, repE := runWith(t, scenario, core.NewRMISUT(), &plan2, 0)
	if repE == repA {
		t.Fatal("different seed produced an identical ledger (suspicious)")
	}
}

// TestCrashForcesRetrain is the acceptance criterion: a crash-restart
// demonstrably forces the learned SUT to retrain, and the recovery view
// surfaces the fault span.
func TestCrashForcesRetrain(t *testing.T) {
	scenario := faultScenario(8000)
	plan, err := ParseSpec("crash@0.2ms", 5)
	if err != nil {
		t.Fatal(err)
	}

	// Learned index: the crash wipes its models mid-run, so the op stream
	// must pay retraining work that the clean run never sees.
	r := core.NewRunner()
	var inj *Injector
	r.WrapSUT = func(s core.SUT, clock sim.Clock) core.SUT {
		inj = NewInjector(plan, clock)
		return Wrap(s, inj)
	}
	res, err := r.Run(scenario, core.NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	rep := inj.Report()
	if rep.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Crashes)
	}
	if rep.CrashRetrainWork <= 0 {
		t.Fatalf("crash retrain work = %d, want > 0 for a learned SUT", rep.CrashRetrainWork)
	}

	// The retrain bill is visible end to end: the crashed run's results
	// diverge from the clean run's (the op stream paid retraining work a
	// clean run never sees — it may even speed up afterwards, since the
	// forced retrain sees fresher data).
	clean, err := core.NewRunner().Run(scenario, core.NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, err := report.MarshalResult(clean)
	if err != nil {
		t.Fatal(err)
	}
	crashJSON, err := report.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cleanJSON, crashJSON) {
		t.Fatal("crash-restart left the run byte-identical to a clean run")
	}

	// The recovery view pins the fault span to the crash instant.
	start, end, ok := plan.OpFaultSpan()
	if !ok {
		t.Fatal("crash plan reports no op-fault span")
	}
	rec := res.Snapshot.Recovery(start, end, 0)
	if rec.FaultStartNs != start || rec.FaultEndNs != end {
		t.Fatalf("recovery span [%d,%d], want [%d,%d]", rec.FaultStartNs, rec.FaultEndNs, start, end)
	}
	if rec.Availability <= 0 || rec.Availability > 1 {
		t.Fatalf("availability = %v", rec.Availability)
	}

	// The traditional B+ tree has no learned state: zero retrain work.
	var binj *Injector
	rb := core.NewRunner()
	rb.WrapSUT = func(s core.SUT, clock sim.Clock) core.SUT {
		binj = NewInjector(plan, clock)
		return Wrap(s, binj)
	}
	if _, err := rb.Run(scenario, core.NewBTreeSUT()); err != nil {
		t.Fatal(err)
	}
	if w := binj.Report().CrashRetrainWork; w != 0 {
		t.Fatalf("btree crash retrain work = %d, want 0", w)
	}
}

// TestErrorWindowAccounting: injected op errors are excluded from latency
// stats but tallied as failures everywhere they should appear.
func TestErrorWindowAccounting(t *testing.T) {
	scenario := faultScenario(6000)
	plan, err := ParseSpec("error@0ms-1000ms", 77) // full-run outage, rate=1
	if err != nil {
		t.Fatal(err)
	}
	data, rep := runWith(t, scenario, core.NewBTreeSUT(), &plan, 0)
	if rep.FailedOps != 6000 {
		t.Fatalf("failed ops = %d, want all 6000", rep.FailedOps)
	}
	if !strings.Contains(string(data), `"failed"`) {
		t.Fatal("result JSON does not surface the failed count")
	}

	res := mustRun(t, scenario, plan)
	if res.Snapshot.Failed != 6000 {
		t.Fatalf("snapshot failed = %d, want 6000", res.Snapshot.Failed)
	}
	if res.Completed != 0 {
		t.Fatalf("completed = %d, want 0 (every op failed)", res.Completed)
	}
	if res.Outcomes.Failed != 6000 {
		t.Fatalf("outcomes failed = %d, want 6000", res.Outcomes.Failed)
	}
	start, end, _ := plan.OpFaultSpan()
	rec := res.Snapshot.Recovery(start, end, 0)
	if rec.Availability != 0 {
		t.Fatalf("availability = %v, want 0 under a full outage", rec.Availability)
	}
	if rec.Recovered {
		t.Fatal("recovered = true under a run-long outage")
	}
	if rec.TimeToRecoverNs != -1 {
		t.Fatalf("time to recover = %d, want -1 sentinel", rec.TimeToRecoverNs)
	}
}

func mustRun(t *testing.T, scenario core.Scenario, plan Plan) *core.Result {
	t.Helper()
	r := core.NewRunner()
	r.WrapSUT = func(s core.SUT, clock sim.Clock) core.SUT {
		return Wrap(s, NewInjector(plan, clock))
	}
	res, err := r.Run(scenario, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInjectedFaultIsDetected is the benchmark's sensitivity check: a 60x
// slowdown injected into the middle of a steady run must be visible in
// every adaptability metric the paper proposes.
func TestInjectedFaultIsDetected(t *testing.T) {
	scenario := faultScenario(9000)
	healthy := mustRun(t, scenario, Plan{})
	// The window is in virtual time, which the slowdown itself stretches:
	// ten healthy run lengths of it hold a few thousand degraded ops.
	start := healthy.DurationNs / 3
	plan, err := ParseSpec(fmt.Sprintf("slow@%dns-%dns:factor=60", start, start+10*healthy.DurationNs), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, scenario, plan)

	// 1. The timeline dips during the fault.
	if dip := res.Timeline.DipDepth(start); dip < 0.5 {
		t.Fatalf("dip depth %v — fault invisible in the timeline", dip)
	}
	// 2. SLA bands light up only in the degraded run.
	if res.Bands.ViolationRate() <= healthy.Bands.ViolationRate() {
		t.Fatalf("violations: degraded %v vs healthy %v",
			res.Bands.ViolationRate(), healthy.Bands.ViolationRate())
	}
	if res.Bands.ViolationRate() < 0.05 {
		t.Fatalf("degraded violation rate %v too low to notice", res.Bands.ViolationRate())
	}
	// 3. The cumulative curve departs from ideal more than the healthy run.
	if res.Cumulative.AreaVsIdeal() <= healthy.Cumulative.AreaVsIdeal() {
		t.Fatal("area-vs-ideal does not reflect the fault")
	}
	// 4. The run is slower overall.
	if res.Throughput() >= healthy.Throughput() {
		t.Fatal("throughput unaffected by a 60x fault")
	}
}
