package driver

import (
	"fmt"
	"reflect"
	"slices"
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

// issued runs the spec path and returns every dispatch the SUT was handed:
// what the driver issued, round by round.
func issued(t *testing.T, spec workload.Spec, opts Options) [][]workload.Op {
	t.Helper()
	sut := newRoundLog()
	if _, err := Run(sut, spec, distgen.NewUniform(25, 0, 1<<40), 500, opts); err != nil {
		t.Fatal(err)
	}
	return sut.rounds
}

// shares draws what the spec path pins: worker w's stream is
// NewSource(spec, nil, PhaseSeed(seed, w))'s first share, drawn in worker
// order from the one (possibly stateful) spec.
func shares(spec workload.Spec, seed uint64, share ...int) [][]workload.Op {
	streams := make([][]workload.Op, len(share))
	for w, n := range share {
		streams[w] = make([]workload.Op, n)
		workload.NewSource(spec, nil, workload.PhaseSeed(seed, w)).Fill(streams[w], make([]int64, n), 0, n)
	}
	return streams
}

// TestRunSpecStreamsDecidedBeforeStart: on the spec path every worker's
// stream is drawn before the clock starts, one worker after the other. So
// two runs of one seed over a stateful drift issue the same ops in the same
// rounds, and those rounds interleave exactly each worker's generator's first
// share, drawn in worker order — which at one worker is the virtual run's
// phase 0, op for op.
func TestRunSpecStreamsDecidedBeforeStart(t *testing.T) {
	opts := Options{Workers: 2, Ops: 4001, Seed: 26}
	a, b := issued(t, blendSpec(), opts), issued(t, blendSpec(), opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of one seed issued different rounds")
	}
	if want := interleave(shares(blendSpec(), opts.Seed, 2001, 2000), 1); !reflect.DeepEqual(a, want) {
		t.Fatal("the rounds do not interleave each worker's generator's first share")
	}

	one := issued(t, blendSpec(), Options{Workers: 1, Ops: 3000, Seed: 26})
	virtual := core.Scenario{Seed: 26, Phases: []core.Phase{{Ops: 3000, Workload: blendSpec()}}}.Materialize()
	if !reflect.DeepEqual(slices.Concat(one...), virtual.Phases[0].Trace.Ops) {
		t.Fatal("the one worker did not issue the virtual run's phase 0")
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
	run := func(batch int) *core.Result {
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
