package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/distgen"
	"repro/internal/workload"
)

// quickSpec is quickScenario's workload under mix.
func quickSpec(mix workload.Mix) workload.Spec {
	return workload.Spec{Mix: mix, Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<40)}}
}

// quickScenario builds a small single-phase scenario.
func quickScenario(ops int) Scenario {
	return Scenario{
		Name:        "quick",
		Seed:        1,
		InitialData: distgen.NewUniform(1, 0, 1<<40),
		InitialSize: 5000,
		TrainBefore: true,
		IntervalNs:  100_000, // 0.1ms: fine enough for short virtual runs
		Phases: []Phase{{
			Name:   "steady",
			Ops:    ops,
			Source: workload.FromSpec(quickSpec(workload.ReadHeavy), nil),
		}},
	}
}

// shiftedSpec is shiftScenario's second workload under mix.
func shiftedSpec(mix workload.Mix) workload.Spec {
	return workload.Spec{
		Mix:        mix,
		Access:     distgen.Static{G: distgen.NewClustered(3, 5, 1e9)},
		InsertKeys: distgen.Static{G: distgen.NewUniform(4, 1<<41, 1<<42)},
	}
}

func shiftScenario() Scenario {
	s := quickScenario(4000)
	s.Name = "shift"
	s.Phases = append(s.Phases, Phase{
		Name:   "shifted",
		Ops:    4000,
		Source: workload.FromSpec(shiftedSpec(workload.Balanced), nil),
	})
	return s
}

func TestRunnerBasics(t *testing.T) {
	res, err := NewRunner().Run(quickScenario(3000), NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3000 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.DurationNs <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if res.Cumulative.Total() != 3000 {
		t.Fatal("cumulative curve incomplete")
	}
	if res.Latency.Count() != 3000 {
		t.Fatal("latency histogram incomplete")
	}
	if res.SLANs <= 0 {
		t.Fatal("no SLA calibrated")
	}
	if res.SUT != "btree" || res.Scenario != "quick" {
		t.Fatal("labels missing")
	}
}

func TestRunnerDeterministic(t *testing.T) {
	a, err := NewRunner().Run(shiftScenario(), NewALEXSUT())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Run(shiftScenario(), NewALEXSUT())
	if err != nil {
		t.Fatal(err)
	}
	if a.DurationNs != b.DurationNs || a.Completed != b.Completed {
		t.Fatalf("runs differ: %d/%d vs %d/%d", a.DurationNs, a.Completed, b.DurationNs, b.Completed)
	}
	if a.Latency.Quantile(0.99) != b.Latency.Quantile(0.99) {
		t.Fatal("latency distributions differ")
	}
}

func TestRunnerTrainingCharged(t *testing.T) {
	res, err := NewRunner().Run(quickScenario(1000), NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.OfflineTrainWork <= 0 {
		t.Fatal("RMI training not charged")
	}
	if res.Models <= 0 {
		t.Fatal("no models reported")
	}
	// B+ tree has no training.
	bres, err := NewRunner().Run(quickScenario(1000), NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if bres.OfflineTrainWork != 0 {
		t.Fatal("btree charged training")
	}
}

func TestRunnerPhases(t *testing.T) {
	res, err := NewRunner().Run(shiftScenario(), NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	if len(res.PhaseStarts) != 2 || res.PhaseStarts[1] <= res.PhaseStarts[0] {
		t.Fatalf("phase starts = %v", res.PhaseStarts)
	}
	if len(res.PostChangeLatencies) != 1 || len(res.PostChangeLatencies[0]) == 0 {
		t.Fatal("post-change latencies missing")
	}
	for _, p := range res.Phases {
		if p.Completed != 4000 {
			t.Fatalf("phase %s completed %d", p.Name, p.Completed)
		}
		if p.Throughput() <= 0 {
			t.Fatalf("phase %s throughput", p.Name)
		}
	}
}

func TestRunnerRetrainBefore(t *testing.T) {
	s := shiftScenario()
	s.Phases[1].RetrainBefore = true
	res, err := NewRunner().Run(s, NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[1].RetrainWork <= 0 {
		t.Fatal("scheduled retrain not recorded")
	}
}

func TestRunnerRetrainAccounting(t *testing.T) {
	// Three retraining windows across a multi-phase scenario: every one
	// must be counted, and model counts must not be lost by overwriting.
	s := shiftScenario()
	s.Phases[1].RetrainBefore = true
	s.Phases = append(s.Phases, Phase{
		Name:          "third",
		Ops:           2000,
		RetrainBefore: true,
		Source: workload.FromSpec(workload.Spec{
			Mix:    workload.ReadHeavy,
			Access: distgen.Static{G: distgen.NewUniform(5, 0, 1<<40)},
		}, nil),
	}, Phase{
		Name:          "fourth",
		Ops:           2000,
		RetrainBefore: true,
		Source: workload.FromSpec(workload.Spec{
			Mix:    workload.ReadHeavy,
			Access: distgen.Static{G: distgen.NewUniform(6, 0, 1<<40)},
		}, nil),
	})
	res, err := NewRunner().Run(s, NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Retrains != 3 {
		t.Fatalf("retrains = %d, want 3", res.Retrains)
	}
	if res.Models <= 0 || res.MaxModels < res.Models {
		t.Fatalf("model accounting: last %d, max %d", res.Models, res.MaxModels)
	}
	var windows int
	for _, p := range res.Phases {
		if p.RetrainWork > 0 {
			windows++
		}
	}
	if windows != 3 {
		t.Fatalf("retrain work recorded in %d phases, want 3", windows)
	}
	// An untrained SUT must report zero retrains even with windows set.
	bres, err := NewRunner().Run(s, NewHashSUT())
	if err != nil {
		t.Fatal(err)
	}
	if bres.Retrains != 0 {
		t.Fatalf("untrainable SUT reports %d retrains", bres.Retrains)
	}
}

func TestRunnerBandsCoverAllOps(t *testing.T) {
	res, err := NewRunner().Run(shiftScenario(), NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, iv := range res.Bands.Intervals() {
		total += iv.Completed
	}
	if total != res.Completed {
		t.Fatalf("bands cover %d of %d ops", total, res.Completed)
	}
}

func TestRunnerBandsTinyFirstPhase(t *testing.T) {
	// Phase 0 shorter than the 1000-op calibration window: bands must
	// still cover everything.
	s := shiftScenario()
	s.Phases[0].Ops = 200
	res, err := NewRunner().Run(s, NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, iv := range res.Bands.Intervals() {
		total += iv.Completed
	}
	if total != res.Completed {
		t.Fatalf("bands cover %d of %d ops", total, res.Completed)
	}
}

func TestRunnerFixedSLA(t *testing.T) {
	s := quickScenario(1000)
	s.SLANs = 123456
	res, err := NewRunner().Run(s, NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.SLANs != 123456 || res.Bands.SLA() != 123456 {
		t.Fatalf("fixed SLA not honoured: %d", res.SLANs)
	}
}

func TestRunnerOnlineLearnerAccounting(t *testing.T) {
	// ALEX under heavy inserts must accumulate online training work.
	s := quickScenario(20000)
	spec := quickSpec(workload.WriteHeavy)
	spec.InsertKeys = distgen.Static{G: distgen.NewUniform(9, 0, 1<<50)}
	s.Phases[0].Source = workload.FromSpec(spec, nil)
	res, err := NewRunner().Run(s, NewALEXSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.OnlineTrainWork <= 0 {
		t.Fatal("online training work not collected")
	}
}

func TestRunnerValidation(t *testing.T) {
	r := NewRunner()
	bad := []Scenario{
		{},
		{InitialData: distgen.NewUniform(1, 0, 10)},
		{InitialData: distgen.NewUniform(1, 0, 10), Phases: []Phase{{Ops: 0}}},
		{InitialData: distgen.NewUniform(1, 0, 10), Phases: []Phase{{Ops: 5}}},
	}
	for i, s := range bad {
		if _, err := r.Run(s, NewBTreeSUT()); err == nil {
			t.Fatalf("scenario %d: no validation error", i)
		}
	}
}

// TestScenarioTraceReplay: Trace and Replay are inverses on a materialized
// scenario, and Trace refuses what would not be a recording of a run — a
// scenario that is still live, one that does not validate, and one whose
// bounded source drained before the phase's op count.
func TestScenarioTraceReplay(t *testing.T) {
	s := shiftScenario().Materialize()
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != s.Name || tr.Seed != s.Seed || len(tr.Phases) != 2 || tr.TotalOps() != 8000 ||
		tr.Phases[1].Index != 1 || tr.Phases[1].Name != "shifted" || tr.Phases[1].DeclaredOps != 4000 {
		t.Fatalf("trace identity: %q seed %d, %d phases, %d ops", tr.Name, tr.Seed, len(tr.Phases), tr.TotalOps())
	}
	back := quickScenario(1)
	back.Phases = nil
	for pi, ph := range tr.Phases {
		back.Phases = append(back.Phases, Phase{Name: ph.Name, Ops: len(ph.Ops), Source: tr.PhaseReader(pi)})
	}
	for pi, p := range back.Materialize().Phases {
		if p.Name != s.Phases[pi].Name || p.Ops != s.Phases[pi].Ops || p.Source != nil ||
			!reflect.DeepEqual(p.Trace.Ops, s.Phases[pi].Trace.Ops) || !reflect.DeepEqual(p.Trace.Gaps, s.Phases[pi].Trace.Gaps) {
			t.Fatalf("phase %d did not survive Trace → PhaseReader", pi)
		}
	}

	short := quickScenario(10)
	short.Phases[0].Source = workload.NewTraceReader("short", make([]workload.Op, 4), nil)
	for name, bad := range map[string]Scenario{
		"live": shiftScenario(), "invalid": Scenario{}.Materialize(), "drained source": short.Materialize(),
	} {
		if _, err := bad.Trace(); err == nil {
			t.Errorf("%s scenario: Trace returned no error", name)
		}
	}
}

func TestRunnerOpenLoopQueueing(t *testing.T) {
	// An arrival rate far above service capacity must produce latencies
	// far beyond service time (queueing delay) — the mechanism behind
	// realistic SLA violations under bursts.
	s := quickScenario(3000)
	s.Phases[0].Source = workload.FromSpec(quickSpec(workload.ReadHeavy), workload.NewPoisson(5, 5_000_000)) // 5M/s: saturating
	res, err := NewRunner().Run(s, NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	closed, err := NewRunner().Run(quickScenario(3000), NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Quantile(0.99) <= 2*closed.Latency.Quantile(0.99) {
		t.Fatalf("saturated open loop p99 (%d) not above closed loop (%d)",
			res.Latency.Quantile(0.99), closed.Latency.Quantile(0.99))
	}
}

func TestRunAllParallelBitIdentical(t *testing.T) {
	// The orchestration guarantee: RunAll fans runs out across workers
	// without changing a single bit of any result, because every stateful
	// input is materialized before the fan-out.
	// Generators are stateful, so each RunAll gets a freshly built
	// scenario; the seeds inside make the two builds identical.
	mk := func() Scenario {
		s := shiftScenario()
		s.Phases[1].RetrainBefore = true
		return s
	}
	serial := NewRunner()
	serial.Parallel = 1
	parallel := NewRunner()
	parallel.Parallel = 8

	a, err := serial.RunAll(mk(), StandardSUTs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.RunAll(mk(), StandardSUTs())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.SUT != rb.SUT {
			t.Fatalf("order differs at %d: %s vs %s", i, ra.SUT, rb.SUT)
		}
		if ra.DurationNs != rb.DurationNs || ra.Completed != rb.Completed ||
			ra.SLANs != rb.SLANs || ra.OfflineTrainWork != rb.OfflineTrainWork ||
			ra.OnlineTrainWork != rb.OnlineTrainWork || ra.Retrains != rb.Retrains ||
			ra.Models != rb.Models {
			t.Fatalf("%s: headline metrics differ between serial and parallel", ra.SUT)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			if ra.Latency.Quantile(q) != rb.Latency.Quantile(q) {
				t.Fatalf("%s: latency q%.2f differs", ra.SUT, q)
			}
		}
		if ra.Bands.ViolationRate() != rb.Bands.ViolationRate() {
			t.Fatalf("%s: violation rates differ", ra.SUT)
		}
		iva, ivb := ra.Bands.Intervals(), rb.Bands.Intervals()
		if len(iva) != len(ivb) {
			t.Fatalf("%s: band interval counts differ", ra.SUT)
		}
		for j := range iva {
			if iva[j] != ivb[j] {
				t.Fatalf("%s: band interval %d differs: %+v vs %+v", ra.SUT, j, iva[j], ivb[j])
			}
		}
	}
}

func TestRunAll(t *testing.T) {
	results, err := NewRunner().RunAll(quickScenario(500), StandardSUTs())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.SUT] = true
	}
	for _, want := range []string{"btree", "hash", "rmi", "alex"} {
		if !names[want] {
			t.Fatalf("missing SUT %s in %v", want, names)
		}
	}
}

func TestHoldoutRegistry(t *testing.T) {
	reg := NewHoldoutRegistry()
	if err := reg.Register("secret", func() Scenario { return quickScenario(300) }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("secret", func() Scenario { return quickScenario(300) }); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	r := NewRunner()
	res, err := reg.RunOnce(r, "secret", NewBTreeSUT)
	if err != nil || res.Completed != 300 {
		t.Fatalf("first run: %v", err)
	}
	if _, err := reg.RunOnce(r, "secret", NewBTreeSUT); err == nil {
		t.Fatal("second attempt allowed")
	}
	// A different SUT still gets its attempt.
	if _, err := reg.RunOnce(r, "secret", NewRMISUT); err != nil {
		t.Fatalf("different SUT blocked: %v", err)
	}
	if _, err := reg.RunOnce(r, "ghost", NewBTreeSUT); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown hold-out: %v", err)
	}
	if len(reg.Names()) != 1 {
		t.Fatalf("names = %v", reg.Names())
	}
}

func TestKVSUTRuns(t *testing.T) {
	s := quickScenario(2000)
	s.Phases[0].Source = workload.FromSpec(quickSpec(workload.Balanced), nil)
	res, err := NewRunner().Run(s, NewKVSUTDefault())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2000 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestAdaptabilityShiftVisibleInMetrics(t *testing.T) {
	// Integration: on an abrupt insert-flood shift, the learned adaptive
	// index must show online work AND the metrics must register phase
	// boundaries usable for adaptation analysis.
	s := shiftScenario()
	s.Phases[1].Source = workload.FromSpec(shiftedSpec(workload.WriteHeavy), nil)
	res, err := NewRunner().Run(s, NewALEXSUT())
	if err != nil {
		t.Fatal(err)
	}
	changeAt := res.PhaseStarts[1]
	if changeAt <= 0 || changeAt >= res.DurationNs {
		t.Fatalf("change instant %d outside run", changeAt)
	}
	if res.Timeline.Len() < 2 {
		t.Fatal("timeline too coarse to analyze")
	}
}
