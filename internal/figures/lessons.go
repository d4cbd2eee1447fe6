package figures

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/distgen"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// Lesson1Result quantifies Lesson 1 ("abstain from fixed workloads and
// databases as their characteristics are easy to learn"): the learned
// index's advantage over the traditional baseline on a fixed distribution
// versus under drift. A fixed benchmark overstates learned systems.
type Lesson1Result struct {
	// FixedRatio is learned/traditional throughput on the fixed workload.
	FixedRatio float64
	// DriftRatio is the same ratio under drift + insert flood.
	DriftRatio                     float64
	FixedLearned, FixedTraditional float64
	DriftLearned, DriftTraditional float64
}

// Lesson1 runs the fixed-vs-varying ablation with RMI as the learned
// system and the B+ tree as the traditional baseline.
func Lesson1(scale Scale, seed uint64) (*Lesson1Result, error) {
	runner := newRunner(scale)
	seqGen := func(s uint64) distgen.Generator { return distgen.NewSequential(s, 1<<20, 64) }

	fixed := core.Scenario{
		Name:        "lesson1-fixed",
		Seed:        seed,
		InitialData: seqGen(seed + 1),
		InitialSize: scale.DataSize,
		TrainBefore: true,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{{
			Name: "fixed",
			Ops:  scale.Ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.ReadHeavy,
				Access: distgen.Static{G: seqGen(seed + 2)},
			}, nil),
		}},
	}

	drift := fixed
	drift.Name = "lesson1-drift"
	drift.Phases = []core.Phase{{
		Name: "drifting",
		Ops:  scale.Ops,
		Source: workload.FromSpec(workload.Spec{
			Mix: workload.Mix{GetFrac: 0.6, PutFrac: 0.4},
			Access: distgen.NewBlend(seed+3,
				seqGen(seed+4),
				distgen.NewClustered(seed+5, 25, float64(distgen.KeyDomain)/1e6)),
			InsertKeys: distgen.NewBlend(seed+6,
				seqGen(seed+7),
				distgen.NewClustered(seed+8, 25, float64(distgen.KeyDomain)/1e6)),
		}, nil),
	}}

	out := &Lesson1Result{}
	for _, cfg := range []struct {
		s    core.Scenario
		l, t *float64
	}{
		{fixed, &out.FixedLearned, &out.FixedTraditional},
		{drift, &out.DriftLearned, &out.DriftTraditional},
	} {
		results, err := runner.RunAll(cfg.s, []func() core.SUT{core.NewRMISUT, core.NewBTreeSUT})
		if err != nil {
			return nil, fmt.Errorf("figures: lesson1: %w", err)
		}
		*cfg.l = results[0].Throughput()
		*cfg.t = results[1].Throughput()
	}
	out.FixedRatio = out.FixedLearned / out.FixedTraditional
	out.DriftRatio = out.DriftLearned / out.DriftTraditional
	return out, nil
}

// Lesson2Result demonstrates Lesson 2 ("average metrics do not capture
// adaptability"): two kv configurations with similar average throughput
// but wildly different variance/tail behaviour.
type Lesson2Result struct {
	NameA, NameB             string
	MeanA, MeanB             float64 // per-interval throughput means
	StddevA, StddevB         float64
	P99LatencyA, P99LatencyB int64
	MeanGapFraction          float64 // |meanA-meanB| / max
	VarianceRatio            float64 // larger stddev / smaller stddev
	// TailRatio is the larger p99 latency over the smaller — the
	// difference the average completely hides.
	TailRatio float64
}

// Lesson2 compares "few giant compactions" against "many small
// compactions" — classic configurations whose averages hide opposite
// latency behaviour.
func Lesson2(scale Scale, seed uint64) (*Lesson2Result, error) {
	runner := newRunner(scale)
	scenario := core.Scenario{
		Name:        "lesson2",
		Seed:        seed,
		InitialData: distgen.NewUniform(seed+1, 0, distgen.KeyDomain),
		InitialSize: scale.DataSize / 2,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{{
			Name: "write-heavy",
			Ops:  scale.Ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.WriteHeavy,
				Access: distgen.Static{G: distgen.NewUniform(seed+2, 0, distgen.KeyDomain)},
			}, nil),
		}},
	}
	spiky := kv.Knobs{MemtableCap: 512, MaxRuns: 16, SparseEvery: 128, BloomBitsPerKey: 8}
	smooth := kv.Knobs{MemtableCap: 1024, MaxRuns: 2, SparseEvery: 128, BloomBitsPerKey: 8}

	ra, err := runner.Run(scenario, core.NewKVSUT(spiky))
	if err != nil {
		return nil, err
	}
	rb, err := runner.Run(scenario, core.NewKVSUT(smooth))
	if err != nil {
		return nil, err
	}
	sa, sb := ra.Bands.ThroughputSummary(), rb.Bands.ThroughputSummary()
	out := &Lesson2Result{
		NameA: "rare-giant-compactions", NameB: "frequent-small-compactions",
		MeanA: sa.Mean, MeanB: sb.Mean,
		StddevA: sa.Stddev, StddevB: sb.Stddev,
		P99LatencyA: ra.Latency.Quantile(0.99),
		P99LatencyB: rb.Latency.Quantile(0.99),
	}
	maxMean := math.Max(out.MeanA, out.MeanB)
	if maxMean > 0 {
		out.MeanGapFraction = math.Abs(out.MeanA-out.MeanB) / maxMean
	}
	lo, hi := out.StddevA, out.StddevB
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo > 0 {
		out.VarianceRatio = hi / lo
	} else {
		out.VarianceRatio = math.Inf(1)
	}
	pLo, pHi := out.P99LatencyA, out.P99LatencyB
	if pLo > pHi {
		pLo, pHi = pHi, pLo
	}
	if pLo > 0 {
		out.TailRatio = float64(pHi) / float64(pLo)
	} else {
		out.TailRatio = math.Inf(1)
	}
	return out, nil
}

// Lesson3Result demonstrates Lesson 3 ("training must be a first-class
// result"): the execution-only comparison favours the learned index, but
// accounting for training time there is a break-even query count below
// which the traditional system is the right choice.
type Lesson3Result struct {
	TrainNs         int64   // virtual training time of the learned index
	LearnedOpNs     float64 // per-op virtual time, learned, post-training
	TraditionalOpNs float64 // per-op virtual time, traditional
	// BreakEvenQueries is the query count where learned total time
	// (training + execution) matches traditional; below it, training
	// never pays off. Negative if learned is not faster per op.
	BreakEvenQueries float64
}

// Lesson3 measures the training-inclusive break-even on a learnable
// (sequential) distribution.
func Lesson3(scale Scale, seed uint64) (*Lesson3Result, error) {
	runner := newRunner(scale)
	gen := func(s uint64) distgen.Generator { return distgen.NewSequential(s, 1<<20, 64) }
	scenario := core.Scenario{
		Name:        "lesson3",
		Seed:        seed,
		InitialData: gen(seed + 1),
		InitialSize: scale.DataSize,
		TrainBefore: true,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{{
			Name: "reads",
			Ops:  scale.Ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.Mix{GetFrac: 1},
				Access: distgen.Static{G: gen(seed + 2)},
			}, nil),
		}},
	}
	learned, err := runner.Run(scenario, core.NewRMISUT())
	if err != nil {
		return nil, err
	}
	trad, err := runner.Run(scenario, core.NewBTreeSUT())
	if err != nil {
		return nil, err
	}
	cm := sim.DefaultCostModel()
	out := &Lesson3Result{
		TrainNs:         cm.TrainTime(learned.OfflineTrainWork),
		LearnedOpNs:     float64(learned.DurationNs-cm.TrainTime(learned.OfflineTrainWork)) / float64(learned.Completed),
		TraditionalOpNs: float64(trad.DurationNs) / float64(trad.Completed),
	}
	diff := out.TraditionalOpNs - out.LearnedOpNs
	if diff > 0 {
		out.BreakEvenQueries = float64(out.TrainNs) / diff
	} else {
		out.BreakEvenQueries = -1
	}
	return out, nil
}

// Lesson4Result demonstrates Lesson 4 ("we cannot ignore the human cost
// anymore"): the TCO ranking of auto-tuned vs. DBA-tuned flips once human
// hours are priced.
type Lesson4Result struct {
	// Machine-only TCO (training/execution hardware, human cost at $0).
	MachineOnlyLearned float64
	MachineOnlyDBA     float64
	// Full TCO at the default $120/h DBA rate.
	FullLearned float64
	FullDBA     float64
}

// Lesson4 prices the two optimizations of the Figure 1d tuning experiment:
// the learned system's largest training budget on the CPU tier and the
// DBA's full script, each amortized over the same execution horizon.
// Neither price depends on a measurement, so nothing is run.
func Lesson4() *Lesson4Result {
	var hours float64
	for _, a := range tuner.DBAScript() {
		hours += a.Hours
	}
	m := modelWithDBARate(120)
	m0 := modelWithDBARate(0)
	learned := m.TrainingCost(float64(slices.Max(Fig1dBudgets)), EvalHoursCPU, cost.CPU)
	dba := m.DBACost(hours)
	// Execution hardware cost is identical for both (same store, same
	// machine): 8 hours/day for a year at the CPU tier.
	const execHoursPerYear = 8 * 365
	// The learned system's optimization cost is hardware (training) cost;
	// the DBA's is purely human, so it vanishes at $0/h.
	return &Lesson4Result{
		MachineOnlyLearned: m0.TCO(execHoursPerYear, learned),
		MachineOnlyDBA:     m0.TCO(execHoursPerYear, 0),
		FullLearned:        m.TCO(execHoursPerYear, learned),
		FullDBA:            m.TCO(execHoursPerYear, dba),
	}
}

// lessonsResult is the lessons panel: Lessons 1–4.
type lessonsResult struct {
	l1 *Lesson1Result
	l2 *Lesson2Result
	l3 *Lesson3Result
	l4 *Lesson4Result
}

func lessons(scale Scale, seed uint64) (*lessonsResult, error) {
	l1, err := Lesson1(scale, seed)
	if err != nil {
		return nil, err
	}
	l2, err := Lesson2(scale, seed)
	if err != nil {
		return nil, err
	}
	l3, err := Lesson3(scale, seed)
	if err != nil {
		return nil, err
	}
	return &lessonsResult{l1: l1, l2: l2, l3: l3, l4: Lesson4()}, nil
}

func renderLessons(w io.Writer, res *lessonsResult, _ csvFunc) {
	l1, l2, l3, l4 := res.l1, res.l2, res.l3, res.l4
	fmt.Fprintf(w, "Lesson 1 (fixed workloads are easy to learn):\n")
	fmt.Fprintf(w, "  learned/traditional throughput ratio: fixed %.2fx -> drifting %.2fx\n\n",
		l1.FixedRatio, l1.DriftRatio)

	fmt.Fprintf(w, "Lesson 2 (averages hide adaptability):\n")
	fmt.Fprintf(w, "  %s: mean %.0f ops/s, p99 latency %dns\n", l2.NameA, l2.MeanA, l2.P99LatencyA)
	fmt.Fprintf(w, "  %s: mean %.0f ops/s, p99 latency %dns\n", l2.NameB, l2.MeanB, l2.P99LatencyB)
	fmt.Fprintf(w, "  means differ %.1f%%; p99 latencies differ %.1fx\n\n",
		l2.MeanGapFraction*100, l2.TailRatio)

	fmt.Fprintf(w, "Lesson 3 (training is a first-class result):\n")
	fmt.Fprintf(w, "  training %.3fms; learned %.0fns/op vs traditional %.0fns/op\n",
		float64(l3.TrainNs)/1e6, l3.LearnedOpNs, l3.TraditionalOpNs)
	fmt.Fprintf(w, "  break-even after %.0f queries\n\n", l3.BreakEvenQueries)

	fmt.Fprintf(w, "Lesson 4 (human cost matters):\n")
	fmt.Fprintf(w, "  machine-only TCO: learned $%.0f vs DBA $%.0f\n", l4.MachineOnlyLearned, l4.MachineOnlyDBA)
	fmt.Fprintf(w, "  with $120/h DBA:  learned $%.0f vs DBA $%.0f\n\n", l4.FullLearned, l4.FullDBA)
}
