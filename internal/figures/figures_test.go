package figures

import (
	"math"
	"testing"
)

// TestFig1aParallelBitIdentical: the determinism guarantee behind
// -parallel — the distribution sweep, fanned out across cases and SUTs,
// produces exactly the data a serial sweep produces.
func TestFig1aParallelBitIdentical(t *testing.T) { checkParallel[*Fig1aResult](t, "fig1a") }

func TestFig1bParallelBitIdentical(t *testing.T) { checkParallel[*Fig1bResult](t, "fig1b") }

func TestFig1cParallelBitIdentical(t *testing.T) { checkParallel[*Fig1cResult](t, "fig1c") }

func TestFig1aShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1aResult](t, "fig1a")
	cases := Fig1aCases()
	if len(res.Rows) != 4 {
		t.Fatalf("SUT count = %d", len(res.Rows))
	}
	for sut, rows := range res.Rows {
		if len(rows) != len(cases) {
			t.Fatalf("%s: %d rows, want %d", sut, len(rows), len(cases))
		}
		holdouts := 0
		for _, r := range rows {
			if r.Summary.N == 0 {
				t.Fatalf("%s/%s: empty summary", sut, r.Label)
			}
			if r.Summary.Median <= 0 {
				t.Fatalf("%s/%s: zero throughput", sut, r.Label)
			}
			if r.Holdout {
				holdouts++
			}
		}
		if holdouts != 1 {
			t.Fatalf("%s: %d holdout rows", sut, holdouts)
		}
	}
	// Φ: the baseline's self-distance must be the smallest.
	if res.Phi["uniform"] > 0.1 {
		t.Fatalf("baseline phi = %v", res.Phi["uniform"])
	}
	for name, phi := range res.Phi {
		if phi < 0 || phi > 1 {
			t.Fatalf("phi[%s] = %v", name, phi)
		}
	}
	// Headline claim of learned indexes: on sequential (perfectly
	// learnable) data the RMI must beat the B+ tree.
	seqOf := func(sut string) float64 {
		for _, r := range res.Rows[sut] {
			if r.Label == "sequential" {
				return r.Summary.Median
			}
		}
		return 0
	}
	if seqOf("rmi") <= seqOf("btree") {
		t.Fatalf("rmi (%v) should beat btree (%v) on sequential data",
			seqOf("rmi"), seqOf("btree"))
	}
}

func TestFig1aSpecializationSpread(t *testing.T) {
	// The RMI's throughput must vary more across distributions than the
	// B+ tree's (specialization vs. distribution-obliviousness) —
	// measured by relative spread of medians.
	t.Parallel()
	res := result[*Fig1aResult](t, "fig1a")
	spread := func(sut string) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range res.Rows[sut] {
			if r.Summary.Median < lo {
				lo = r.Summary.Median
			}
			if r.Summary.Median > hi {
				hi = r.Summary.Median
			}
		}
		return hi / lo
	}
	if spread("rmi") <= spread("btree") {
		t.Fatalf("rmi spread %v not above btree spread %v — specialization invisible",
			spread("rmi"), spread("btree"))
	}
}

func TestFig1bShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1bResult](t, "fig1b")
	if len(res.Curves) != 2 || res.Labels[0] != "rmi" || res.Labels[1] != "btree" {
		t.Fatalf("labels = %v", res.Labels)
	}
	for i, c := range res.Curves {
		if c.Total() != int64(3*SmallScale().Ops) {
			t.Fatalf("curve %d total = %d", i, c.Total())
		}
	}
	if len(res.PhaseStarts) != 2 {
		t.Fatalf("phase starts = %v", res.PhaseStarts)
	}
	if res.AreaBetween == 0 {
		t.Fatal("area difference exactly zero is implausible")
	}
	for sut, a := range res.AreaVsIdeal {
		if a < -1 || a > 1 {
			t.Fatalf("%s area score %v out of range", sut, a)
		}
	}
	// The paper's narrative: the learned system starts slow (training
	// while building) and catches up — a clearly positive area-vs-ideal
	// — and more so than the traditional baseline.
	if res.AreaVsIdeal["rmi"] <= 0.02 {
		t.Fatalf("rmi area-vs-ideal %v should be clearly positive", res.AreaVsIdeal["rmi"])
	}
	if res.AreaVsIdeal["rmi"] <= res.AreaVsIdeal["btree"] {
		t.Fatalf("rmi (%v) should lag the ideal more than btree (%v)",
			res.AreaVsIdeal["rmi"], res.AreaVsIdeal["btree"])
	}
}

func TestFig1cShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1cResult](t, "fig1c")
	for _, sut := range []string{"rmi", "alex", "btree"} {
		bt, ok := res.Bands[sut]
		if !ok {
			t.Fatalf("missing bands for %s", sut)
		}
		if len(bt.Intervals()) < 2 {
			t.Fatalf("%s: only %d intervals", sut, len(bt.Intervals()))
		}
		if res.SLANs[sut] <= 0 {
			t.Fatalf("%s: no SLA", sut)
		}
		if _, ok := res.AdjustmentSpeed[sut]; !ok {
			t.Fatalf("%s: no adjustment speed", sut)
		}
		if r := res.ViolationRate[sut]; r < 0 || r > 1 {
			t.Fatalf("%s: violation rate %v", sut, r)
		}
	}
	// The static learned index pays for adaptation: its adjustment cost
	// after the shift must exceed the traditional baseline's.
	if res.AdjustmentSpeed["rmi"] <= res.AdjustmentSpeed["btree"] {
		t.Fatalf("rmi adjustment %d not above btree %d",
			res.AdjustmentSpeed["rmi"], res.AdjustmentSpeed["btree"])
	}
}

func TestFig1dShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1dResult](t, "fig1d")
	if len(res.LearnedCPU) != len(Fig1dBudgets) || len(res.LearnedGPU) != len(Fig1dBudgets) {
		t.Fatal("learned curve incomplete")
	}
	if len(res.Traditional) != 6 { // untuned + 5 actions
		t.Fatalf("traditional curve has %d points", len(res.Traditional))
	}
	// Learned best-so-far throughput must be non-decreasing in budget.
	prev := 0.0
	for i, p := range res.LearnedCPU {
		if p.Throughput < prev*0.999 {
			t.Fatalf("learned curve decreasing at %d: %v after %v", i, p.Throughput, prev)
		}
		if p.Throughput > prev {
			prev = p.Throughput
		}
		if p.Dollars <= 0 {
			t.Fatalf("point %d has no cost", i)
		}
	}
	// GPU tier must dominate CPU tier on cost for the same throughput.
	for i := range res.LearnedCPU {
		if res.LearnedGPU[i].Dollars >= res.LearnedCPU[i].Dollars {
			t.Fatal("gpu tier not cheaper")
		}
		if res.LearnedGPU[i].Throughput != res.LearnedCPU[i].Throughput {
			t.Fatal("tiers must share throughput")
		}
	}
	// DBA curve: hours cumulative => dollars non-decreasing; tuning must
	// beat the untuned default eventually.
	for i := 1; i < len(res.Traditional); i++ {
		if res.Traditional[i].Dollars < res.Traditional[i-1].Dollars {
			t.Fatal("DBA costs not cumulative")
		}
	}
	if res.Traditional[len(res.Traditional)-1].Throughput <= res.Traditional[0].Throughput {
		t.Fatal("DBA tuning did not improve over untuned")
	}
	// The learned system with a real budget must outperform the best
	// DBA configuration at far lower cost (the paper's headline story).
	if res.CostToOutperformCPU < 0 {
		t.Fatal("learned system never outperforms the DBA — figure shape broken")
	}
	dbaBest := res.Traditional[len(res.Traditional)-1].Dollars
	if res.CostToOutperformCPU >= dbaBest {
		t.Fatalf("cost to outperform ($%v) not below DBA cost ($%v)",
			res.CostToOutperformCPU, dbaBest)
	}
}

func TestLesson1FixedOverstates(t *testing.T) {
	t.Parallel()
	res := result[*lessonsResult](t, "lessons").l1
	if res.FixedRatio <= 1 {
		t.Fatalf("learned index should win on the fixed learnable workload: ratio %v", res.FixedRatio)
	}
	if res.DriftRatio >= res.FixedRatio {
		t.Fatalf("drift should shrink the learned advantage: fixed %v, drift %v",
			res.FixedRatio, res.DriftRatio)
	}
}

func TestLesson2AverageHides(t *testing.T) {
	t.Parallel()
	res := result[*lessonsResult](t, "lessons").l2
	if res.MeanGapFraction > 0.15 {
		t.Fatalf("means too far apart (%v) for the demonstration", res.MeanGapFraction)
	}
	if res.TailRatio < 3 {
		t.Fatalf("p99 ratio %v too small — averages do not hide anything here", res.TailRatio)
	}
}

func TestLesson3BreakEven(t *testing.T) {
	t.Parallel()
	res := result[*lessonsResult](t, "lessons").l3
	if res.TrainNs <= 0 {
		t.Fatal("no training time charged")
	}
	if res.LearnedOpNs >= res.TraditionalOpNs {
		t.Fatalf("learned per-op (%v) should beat traditional (%v) on sequential data",
			res.LearnedOpNs, res.TraditionalOpNs)
	}
	if res.BreakEvenQueries <= 0 {
		t.Fatal("break-even undefined despite learned being faster")
	}
}

func TestLesson4HumanCostFlips(t *testing.T) {
	t.Parallel()
	res := Lesson4()
	// Machine-only: DBA "costs nothing" (human hours unpriced) so the
	// DBA system looks at least as cheap.
	if res.MachineOnlyDBA > res.MachineOnlyLearned {
		t.Fatalf("machine-only TCO: DBA %v should not exceed learned %v",
			res.MachineOnlyDBA, res.MachineOnlyLearned)
	}
	// Full model: pricing the human flips the ranking decisively.
	if res.FullDBA <= res.FullLearned {
		t.Fatalf("full TCO: DBA %v should exceed learned %v", res.FullDBA, res.FullLearned)
	}
}
