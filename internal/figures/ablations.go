package figures

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/similarity"
	"repro/internal/workload"
)

// This file implements the five design-choice ablations called out in
// DESIGN.md §5. Each quantifies why the benchmark makes the choice it
// makes — the paper demands benchmarks justify their knobs, so we ablate
// our own.

// AblationSLAResult compares the paper's baseline-calibrated SLA rule to
// fixed thresholds: a threshold that is not derived from the SUT's own
// baseline statistics either misses every adaptation disruption (too
// loose) or drowns the signal in steady-state noise (too tight).
type AblationSLAResult struct {
	// CalibratedViolationRate is the violation rate under the paper's
	// calibrated rule for the learned SUT on the shift scenario.
	CalibratedViolationRate float64
	// LooseViolationRate uses 100x the calibrated threshold.
	LooseViolationRate float64
	// TightViolationRate uses 1/20 of the calibrated threshold.
	TightViolationRate float64
}

// AblationSLA runs the Fig1c shift scenario for the RMI under three SLA
// choices.
func AblationSLA(scale Scale, seed uint64) (*AblationSLAResult, error) {
	runner := newRunner(scale)
	base := fig1bScenario(scale, seed, nil)
	base.Name = "ablation-sla-calibrated"
	calibrated, err := runner.Run(base, core.NewRMISUT())
	if err != nil {
		return nil, err
	}
	out := &AblationSLAResult{
		CalibratedViolationRate: calibrated.Bands.ViolationRate(),
	}
	loose := base
	loose.Name = "ablation-sla-loose"
	loose.SLANs = calibrated.SLANs * 100
	lr, err := runner.Run(loose, core.NewRMISUT())
	if err != nil {
		return nil, err
	}
	out.LooseViolationRate = lr.Bands.ViolationRate()

	tight := base
	tight.Name = "ablation-sla-tight"
	tight.SLANs = calibrated.SLANs / 20
	if tight.SLANs < 1 {
		tight.SLANs = 1
	}
	tr, err := runner.Run(tight, core.NewRMISUT())
	if err != nil {
		return nil, err
	}
	out.TightViolationRate = tr.Bands.ViolationRate()
	return out, nil
}

// AblationPhiResult checks that the two data-distribution Φ estimators
// (KS and subsampled MMD) induce the same ordering over the Figure 1a
// distribution sweep — the property the paper says is sufficient.
type AblationPhiResult struct {
	// OrderAgreement is the fraction of distribution pairs on which KS
	// and MMD agree which is closer to the baseline.
	OrderAgreement float64
	// KS and MMD values per distribution name.
	KS  map[string]float64
	MMD map[string]float64
}

// AblationPhi measures ordering agreement between KS and MMD.
func AblationPhi(seed uint64) *AblationPhiResult {
	cases := Fig1aCases()
	base := distgen.Keys(cases[0].Gen(seed+1000), 4096)
	out := &AblationPhiResult{
		KS:  make(map[string]float64),
		MMD: make(map[string]float64),
	}
	names := make([]string, 0, len(cases))
	for _, c := range cases {
		sample := distgen.Keys(c.Gen(seed+2000), 4096)
		out.KS[c.Name] = similarity.KS(base, sample)
		out.MMD[c.Name] = similarity.MMDSub(base, sample, 0, 256)
		names = append(names, c.Name)
	}
	agree, total := 0, 0
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := names[i], names[j]
			// Skip pairs the estimators consider ties.
			if out.KS[a] == out.KS[b] || out.MMD[a] == out.MMD[b] {
				continue
			}
			total++
			if (out.KS[a] < out.KS[b]) == (out.MMD[a] < out.MMD[b]) {
				agree++
			}
		}
	}
	if total > 0 {
		out.OrderAgreement = float64(agree) / float64(total)
	} else {
		out.OrderAgreement = 1
	}
	return out
}

// AblationTransitionResult compares abrupt and gradual transitions between
// the same two distributions (§V-B: "the type of transition can impact
// performance and adaptability in non-obvious ways").
type AblationTransitionResult struct {
	// AbruptDip and GradualDip are the worst post-change throughput
	// drops (DipDepth) for the adaptive learned index.
	AbruptDip  float64
	GradualDip float64
	// AbruptOverSLA and GradualOverSLA are total over-SLA times (ns).
	AbruptOverSLA  int64
	GradualOverSLA int64
}

// AblationTransition runs the same distribution change abruptly and as a
// linear blend against the ALEX index.
func AblationTransition(scale Scale, seed uint64) (*AblationTransitionResult, error) {
	runner := newRunner(scale)
	oldGen := func(s uint64) distgen.Generator {
		return distgen.NewUniform(s, 0, distgen.KeyDomain/4)
	}
	newGen := func(s uint64) distgen.Generator {
		return distgen.NewUniform(s, distgen.KeyDomain/2, 3*distgen.KeyDomain/4)
	}
	mk := func(name string, drift distgen.Drift) core.Scenario {
		return core.Scenario{
			Name:        name,
			Seed:        seed,
			InitialData: oldGen(seed + 1),
			InitialSize: scale.DataSize,
			IntervalNs:  scale.IntervalNs,
			Phases: []core.Phase{
				{
					Name: "before",
					Ops:  scale.Ops / 2,
					Source: workload.FromSpec(workload.Spec{
						Mix:    workload.ReadHeavy,
						Access: distgen.Static{G: oldGen(seed + 2)},
					}, nil),
				},
				{
					Name: "transition",
					Ops:  scale.Ops,
					Source: workload.FromSpec(workload.Spec{
						Mix:        workload.Mix{GetFrac: 0.5, PutFrac: 0.5},
						Access:     drift,
						InsertKeys: drift,
					}, nil),
				},
			},
		}
	}
	abrupt, err := runner.Run(mk("ablation-abrupt",
		distgen.NewAbrupt(seed+3, oldGen(seed+4), newGen(seed+5), 0.05)), core.NewALEXSUT())
	if err != nil {
		return nil, err
	}
	gradual, err := runner.Run(mk("ablation-gradual",
		distgen.NewBlend(seed+6, oldGen(seed+7), newGen(seed+8))), core.NewALEXSUT())
	if err != nil {
		return nil, err
	}
	overSLA := func(r *core.Result) int64 {
		var total int64
		for _, iv := range r.Bands.Intervals() {
			total += iv.OverSLATime
		}
		return total
	}
	return &AblationTransitionResult{
		AbruptDip:      abrupt.Timeline.DipDepth(abrupt.PhaseStarts[1]),
		GradualDip:     gradual.Timeline.DipDepth(gradual.PhaseStarts[1]),
		AbruptOverSLA:  overSLA(abrupt),
		GradualOverSLA: overSLA(gradual),
	}, nil
}

// AblationTrainingPlacementResult compares offline retraining (a scheduled
// window between phases, paper §V-B "two separate execution phases with
// possible retraining in-between") against purely online adaptation for
// the static learned index.
type AblationTrainingPlacementResult struct {
	// OnlineOverSLA / ScheduledOverSLA: total over-SLA time during the
	// post-shift phase (ns).
	OnlineOverSLA    int64
	ScheduledOverSLA int64
	// OnlineThroughput / ScheduledThroughput over the whole run.
	OnlineThroughput    float64
	ScheduledThroughput float64
	// ScheduledRetrainWork charged by the scheduled window.
	ScheduledRetrainWork int64
}

// AblationTrainingPlacement: the same shift scenario, with and without a
// scheduled retraining window at the phase boundary. Scheduling the
// retrain moves the cost out of the serving path: fewer SLA violations at
// similar overall throughput.
func AblationTrainingPlacement(scale Scale, seed uint64) (*AblationTrainingPlacementResult, error) {
	runner := newRunner(scale)

	online := fig1bScenario(scale, seed, nil)
	online.Name = "ablation-online"
	or, err := runner.Run(online, core.NewRMISUT())
	if err != nil {
		return nil, err
	}

	scheduled := fig1bScenario(scale, seed, nil)
	scheduled.Name = "ablation-scheduled"
	// Retrain in a maintenance window at the start of the settle phase:
	// the delta accumulated during the shift is merged outside serving.
	scheduled.Phases[2].RetrainBefore = true
	sr, err := runner.Run(scheduled, core.NewRMISUT())
	if err != nil {
		return nil, err
	}

	phaseOverSLA := func(r *core.Result, phase int) int64 {
		lo := r.PhaseStarts[phase]
		hi := r.DurationNs
		if phase+1 < len(r.PhaseStarts) {
			hi = r.PhaseStarts[phase+1]
		}
		var total int64
		for _, iv := range r.Bands.Intervals() {
			if iv.Start >= lo && iv.Start < hi {
				total += iv.OverSLATime
			}
		}
		return total
	}
	return &AblationTrainingPlacementResult{
		// Compare the settle phase: online keeps merging mid-serving,
		// scheduled did its merge in the window.
		OnlineOverSLA:        phaseOverSLA(or, 2),
		ScheduledOverSLA:     phaseOverSLA(sr, 2),
		OnlineThroughput:     or.Throughput(),
		ScheduledThroughput:  sr.Throughput(),
		ScheduledRetrainWork: sr.Phases[2].RetrainWork,
	}, nil
}

// AblationHoldoutResult quantifies the hold-out idea (§V-A) as an
// overfitting detector: a SUT "tuned" to one distribution shows a larger
// in-sample/out-of-sample gap than a distribution-oblivious SUT.
type AblationHoldoutResult struct {
	// Gap = in-sample / out-of-sample throughput (1.0 = no overfitting).
	LearnedGap     float64
	TraditionalGap float64
}

// AblationHoldout trains both SUTs on sequential data and evaluates
// in-sample (sequential) and out-of-sample (clustered hold-out).
func AblationHoldout(scale Scale, seed uint64) (*AblationHoldoutResult, error) {
	runner := newRunner(scale)
	mk := func(name string, gen func(uint64) distgen.Generator) core.Scenario {
		return core.Scenario{
			Name:        name,
			Seed:        seed,
			InitialData: gen(seed + 1),
			InitialSize: scale.DataSize,
			TrainBefore: true,
			IntervalNs:  scale.IntervalNs,
			Phases: []core.Phase{{
				Name: "reads",
				Ops:  scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: gen(seed + 2)},
				}, nil),
			}},
		}
	}
	seq := func(s uint64) distgen.Generator { return distgen.NewSequential(s, 1<<20, 64) }
	// Lognormal is the RMI's hard case (Fig 1a): extreme density skew
	// concentrates most keys under a few stage-2 models, blowing up the
	// last-mile error bounds.
	hard := func(s uint64) distgen.Generator { return distgen.NewLognormal(s, 0, 2, 1e12) }
	out := &AblationHoldoutResult{}
	for _, cfg := range []struct {
		factory func() core.SUT
		gap     *float64
	}{
		{core.NewRMISUT, &out.LearnedGap},
		{core.NewBTreeSUT, &out.TraditionalGap},
	} {
		in, err := runner.Run(mk("ablation-insample", seq), cfg.factory())
		if err != nil {
			return nil, err
		}
		outOf, err := runner.Run(mk("ablation-holdout", hard), cfg.factory())
		if err != nil {
			return nil, err
		}
		if outOf.Throughput() == 0 {
			return nil, fmt.Errorf("figures: hold-out run produced zero throughput")
		}
		*cfg.gap = in.Throughput() / outOf.Throughput()
	}
	return out, nil
}

// ablationsResult is the ablations panel: the five design-choice
// ablations of DESIGN.md §5.
type ablationsResult struct {
	sla *AblationSLAResult
	phi *AblationPhiResult
	tr  *AblationTransitionResult
	tp  *AblationTrainingPlacementResult
	ho  *AblationHoldoutResult
}

func ablations(scale Scale, seed uint64) (*ablationsResult, error) {
	sla, err := AblationSLA(scale, seed)
	if err != nil {
		return nil, err
	}
	phi := AblationPhi(seed)
	tr, err := AblationTransition(scale, seed)
	if err != nil {
		return nil, err
	}
	tp, err := AblationTrainingPlacement(scale, seed)
	if err != nil {
		return nil, err
	}
	ho, err := AblationHoldout(scale, seed)
	if err != nil {
		return nil, err
	}
	return &ablationsResult{sla: sla, phi: phi, tr: tr, tp: tp, ho: ho}, nil
}

func renderAblations(w io.Writer, res *ablationsResult, _ csvFunc) {
	sla, phi, tr, tp, ho := res.sla, res.phi, res.tr, res.tp, res.ho
	fmt.Fprintf(w, "1. SLA threshold source — violation rate: calibrated %.1f%%, 100x-loose %.1f%%, 20x-tight %.1f%%\n",
		sla.CalibratedViolationRate*100, sla.LooseViolationRate*100, sla.TightViolationRate*100)
	fmt.Fprintf(w, "2. Φ estimator choice — KS/MMD pairwise ordering agreement: %.0f%%\n",
		phi.OrderAgreement*100)
	fmt.Fprintf(w, "3. Transition type — throughput dip: abrupt %.0f%% vs gradual %.0f%%; over-SLA %.3fms vs %.3fms\n",
		tr.AbruptDip*100, tr.GradualDip*100,
		float64(tr.AbruptOverSLA)/1e6, float64(tr.GradualOverSLA)/1e6)
	fmt.Fprintf(w, "4. Training placement — post-shift over-SLA: online %.3fms vs scheduled window %.3fms (window work %d)\n",
		float64(tp.OnlineOverSLA)/1e6, float64(tp.ScheduledOverSLA)/1e6, tp.ScheduledRetrainWork)
	fmt.Fprintf(w, "5. Hold-out gap — in/out-of-sample throughput ratio: learned %.2fx vs traditional %.2fx\n\n",
		ho.LearnedGap, ho.TraditionalGap)
}
