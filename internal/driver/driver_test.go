package driver

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/workload"
)

func specFor(seed uint64) workload.Spec {
	return workload.Spec{
		Mix:    workload.Balanced,
		Access: distgen.Static{G: distgen.NewUniform(seed, 0, 1<<40)},
	}
}

func TestRunSingleWorker(t *testing.T) {
	res, err := Run(core.NewBTreeSUT(), specFor(1),
		distgen.NewUniform(2, 0, 1<<40), 5000,
		Options{Workers: 1, Ops: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3000 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.DurationNs <= 0 || res.Throughput() <= 0 {
		t.Fatal("no wall time measured")
	}
	if res.Latency.Count() != 3000 || res.Cumulative.Total() != 3000 {
		t.Fatal("metrics incomplete")
	}
	if res.SLANs <= 0 {
		t.Fatal("no SLA calibrated")
	}
}

func TestRunConcurrentWorkers(t *testing.T) {
	res, err := Run(core.NewALEXSUT(), specFor(4),
		distgen.NewUniform(5, 0, 1<<40), 2000,
		Options{Workers: 8, Ops: 8000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8000 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Cumulative curve must be monotone across the workers' rounds.
	prev := int64(-1)
	res.Cumulative.Points(func(tm, c int64) {
		if tm < prev {
			t.Fatal("curve times out of order")
		}
		prev = tm
	})
}

// statefulDrift mutates internal state in both FillAt and Name — the
// worst-case Drift implementation for workers to share.
type statefulDrift struct {
	draws int
	inner distgen.Drift
}

func (s *statefulDrift) Name() string { return fmt.Sprintf("stateful(%d draws)", s.draws) }

func (s *statefulDrift) FillAt(p float64, out []uint64) {
	s.draws += len(out)
	s.inner.FillAt(p, out)
}

// TestRunConcurrentStatefulDrift drives many workers through a genuinely
// stateful drift source: every share is drawn from it, one worker after the
// other, before the first round starts.
func TestRunConcurrentStatefulDrift(t *testing.T) {
	spec := workload.Spec{
		Mix: workload.Balanced,
		Access: &statefulDrift{
			inner: distgen.NewMovingHotspot(11, 0.9, 0.05, 2),
		},
		InsertKeys: &statefulDrift{
			inner: distgen.NewBlend(12,
				distgen.NewUniform(13, 0, 1<<40),
				distgen.NewClustered(14, 5, 1e9)),
		},
	}
	res, err := Run(core.NewBTreeSUT(), spec,
		distgen.NewUniform(15, 0, 1<<40), 2000,
		Options{Workers: 8, Ops: 4000, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4000 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

// blendSpec builds a fresh spec whose insert keys come from a stateful
// drift (a Blend owns an RNG every draw advances), with fixed seeds.
func blendSpec() workload.Spec {
	return workload.Spec{
		Mix:    workload.Balanced,
		Access: distgen.Static{G: distgen.NewUniform(21, 0, 1<<40)},
		InsertKeys: distgen.NewBlend(22,
			distgen.NewUniform(23, 0, 1<<40),
			distgen.NewClustered(24, 5, 1e9)),
	}
}

// issued runs the spec path against sut and returns what each worker issued,
// decoded from the driver's own after-the-fact recording (one phase per
// worker).
func issued(t *testing.T, sut core.SUT, spec workload.Spec, opts Options) []workload.TracePhase {
	t.Helper()
	var buf bytes.Buffer
	opts.TraceSink = workload.NewTraceWriter(&buf, "issued", opts.Seed)
	if _, err := Run(sut, spec, distgen.NewUniform(25, 0, 1<<40), 500, opts); err != nil {
		t.Fatal(err)
	}
	if err := opts.TraceSink.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Phases
}

// TestRunSpecStreamsDecidedBeforeStart: on the spec path every worker's
// stream is drawn before the clock starts, one worker after the other. So
// two runs of one seed over a stateful drift issue the same ops to the same
// worker, and worker w's stream is exactly
// NewSource(spec, nil, PhaseSeed(seed, w))'s first share, drawn in worker
// order — which at one worker is the virtual run's phase 0, op for op.
func TestRunSpecStreamsDecidedBeforeStart(t *testing.T) {
	opts := Options{Workers: 2, Ops: 4001, Seed: 26}
	a, b := issued(t, core.NewBTreeSUT(), blendSpec(), opts), issued(t, core.NewBTreeSUT(), blendSpec(), opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of one seed issued different per-worker streams")
	}

	spec := blendSpec()
	for w, share := range []int{2001, 2000} {
		ops, gaps := make([]workload.Op, share), make([]int64, share)
		workload.NewSource(spec, nil, workload.PhaseSeed(opts.Seed, w)).Fill(ops, gaps, 0, share)
		if len(a) != 2 || !reflect.DeepEqual(a[w].Ops, ops) || !reflect.DeepEqual(a[w].Gaps, gaps) {
			t.Fatalf("worker %d did not issue its generator's first %d ops", w, share)
		}
	}

	one := issued(t, core.NewBTreeSUT(), blendSpec(), Options{Workers: 1, Ops: 3000, Seed: 26})
	virtual := core.Scenario{Seed: 26, Phases: []core.Phase{{Ops: 3000, Workload: blendSpec()}}}.Materialize()
	if len(one) != 1 || !reflect.DeepEqual(one[0].Ops, virtual.Phases[0].Trace.Ops) {
		t.Fatal("the one worker did not issue the virtual run's phase 0")
	}
}

func TestRunDurationExcludesPostProcessing(t *testing.T) {
	res, err := Run(core.NewBTreeSUT(), specFor(20),
		distgen.NewUniform(21, 0, 1<<40), 2000,
		Options{Workers: 4, Ops: 4000, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	// The run duration must cover every recorded completion: the last
	// sample's completion offset cannot exceed the measured duration, and
	// the duration is captured after the last round (not after the collector
	// replay), so the two agree tightly.
	var lastDone int64
	res.Cumulative.Points(func(tm, _ int64) {
		if tm > lastDone {
			lastDone = tm
		}
	})
	if lastDone > res.DurationNs {
		t.Fatalf("last completion at %dns after measured duration %dns", lastDone, res.DurationNs)
	}
}

func TestRunUnevenSplit(t *testing.T) {
	res, err := Run(core.NewHashSUT(), specFor(7), nil, 0,
		Options{Workers: 3, Ops: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed = %d, want all ops despite uneven split", res.Completed)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(core.NewBTreeSUT(), specFor(1), nil, 0, Options{Ops: 0}); err == nil {
		t.Fatal("zero ops accepted")
	}
	if _, err := Run(core.NewBTreeSUT(), workload.Spec{Mix: workload.ReadHeavy}, nil, 0,
		Options{Ops: 10}); err == nil {
		t.Fatal("missing access distribution accepted")
	}
}

// TestRunBatchDispatch proves the batch knob changes only how ops are
// dispatched, not which ops run: with one worker, batched and per-op runs
// issue identical ops in one order against identical SUT state, so the
// outcome tallies and completion counts must match exactly.
func TestRunBatchDispatch(t *testing.T) {
	// A small key domain so lookups actually hit loaded/inserted keys.
	spec := func() workload.Spec {
		return workload.Spec{
			Mix:    workload.Balanced,
			Access: distgen.Static{G: distgen.NewUniform(30, 0, 1<<13)},
		}
	}
	run := func(batch int) *Result {
		res, err := Run(core.NewBTreeSUT(), spec(),
			distgen.NewUniform(31, 0, 1<<13), 3000,
			Options{Workers: 1, Ops: 6000, Seed: 32, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(0)
	if base.Outcomes.WorkUnits == 0 || base.Outcomes.Found == 0 {
		t.Fatalf("no outcomes surfaced: %+v", base.Outcomes)
	}
	for _, b := range []int{1, 8, 117, 10000} {
		res := run(b)
		if res.Completed != base.Completed {
			t.Fatalf("batch=%d completed %d, want %d", b, res.Completed, base.Completed)
		}
		if res.Outcomes != base.Outcomes {
			t.Fatalf("batch=%d outcomes %+v, want %+v", b, res.Outcomes, base.Outcomes)
		}
		if res.Latency.Count() != base.Latency.Count() {
			t.Fatalf("batch=%d recorded %d latencies, want %d",
				b, res.Latency.Count(), base.Latency.Count())
		}
	}
}

// TestRunBatchConcurrent smoke-tests batched dispatch with many workers
// (rounds of 8 × 64 ops): every op completes and the curve stays monotone.
func TestRunBatchConcurrent(t *testing.T) {
	res, err := Run(core.NewALEXSUT(), specFor(33),
		distgen.NewUniform(34, 0, 1<<40), 2000,
		Options{Workers: 8, Ops: 8000, Seed: 35, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8000 {
		t.Fatalf("completed = %d", res.Completed)
	}
	prev := int64(-1)
	res.Cumulative.Points(func(tm, c int64) {
		if tm < prev {
			t.Fatal("curve times out of order")
		}
		prev = tm
	})
}

func TestRunFixedSLA(t *testing.T) {
	res, err := Run(core.NewBTreeSUT(), specFor(9), nil, 0,
		Options{Ops: 500, SLANs: 5_000_000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.SLANs != 5_000_000 {
		t.Fatalf("sla = %d", res.SLANs)
	}
}
