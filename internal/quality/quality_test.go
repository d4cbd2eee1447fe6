package quality

import (
	"testing"

	"repro/internal/distgen"
	"repro/internal/workload"
)

func TestEmptyTrace(t *testing.T) {
	r := Score(nil, nil)
	if r.Overall != 0 {
		t.Fatalf("empty trace scored %v", r.Overall)
	}
}

func TestUniformStaticScoresLow(t *testing.T) {
	keys := distgen.Keys(distgen.NewUniform(1, 0, 1<<40), 20000)
	r := Score(keys, nil)
	if r.Overall > 0.2 {
		t.Fatalf("uniform static trace scored %v: %s", r.Overall, r)
	}
	if r.SkewScore > 0.15 {
		t.Fatalf("uniform skew score %v", r.SkewScore)
	}
	if r.DriftScore > 0.2 {
		t.Fatalf("static drift score %v", r.DriftScore)
	}
}

func TestSkewedScoresAboveUniform(t *testing.T) {
	uni := Score(distgen.Keys(distgen.NewUniform(2, 0, 1<<40), 20000), nil)
	skewed := Score(distgen.Keys(distgen.NewZipfKeys(3, 1.3, 1000), 20000), nil)
	if skewed.SkewScore <= uni.SkewScore {
		t.Fatalf("skew not rewarded: %v vs %v", skewed.SkewScore, uni.SkewScore)
	}
	if skewed.Overall <= uni.Overall {
		t.Fatalf("overall not ordered: %v vs %v", skewed.Overall, uni.Overall)
	}
}

func TestClusteredShapeScores(t *testing.T) {
	uni := Score(distgen.Keys(distgen.NewUniform(4, 0, 1<<40), 10000), nil)
	clustered := Score(distgen.Keys(distgen.NewClustered(5, 5, 1e8), 10000), nil)
	if clustered.ShapeScore <= uni.ShapeScore {
		t.Fatalf("shape not rewarded: %v vs %v", clustered.ShapeScore, uni.ShapeScore)
	}
}

func TestDriftingScoresHigh(t *testing.T) {
	drift := distgen.NewBlend(6,
		distgen.NewUniform(7, 0, 1<<30),
		distgen.NewUniform(8, 1<<39, 1<<40))
	var keys []uint64
	const n = 20000
	for i := 0; i < n; i++ {
		keys = append(keys, distgen.KeysAt(drift, float64(i)/n, 1)[0])
	}
	r := Score(keys, nil)
	if r.DriftScore < 0.8 {
		t.Fatalf("full shift drift score %v", r.DriftScore)
	}
	static := Score(distgen.Keys(distgen.NewUniform(9, 0, 1<<30), n), nil)
	if r.Overall <= static.Overall {
		t.Fatal("drifting trace must outscore static")
	}
}

func TestLoadVariationScored(t *testing.T) {
	// Constant arrivals vs. bursty arrivals.
	constant := make([]int64, 20000)
	for i := range constant {
		constant[i] = 1000
	}
	b := workload.NewBursty(10, 1000, 20, 0.1, 4)
	bursty := make([]int64, 20000)
	for i := range bursty {
		bursty[i] = b.NextGap(float64(i) / 20000)
	}
	keys := distgen.Keys(distgen.NewUniform(11, 0, 1<<40), 20000)
	rc := Score(keys, constant)
	rb := Score(keys, bursty)
	if rb.LoadScore <= rc.LoadScore {
		t.Fatalf("bursty load not rewarded: %v vs %v", rb.LoadScore, rc.LoadScore)
	}
}

func TestLoadlessReweighting(t *testing.T) {
	keys := distgen.Keys(distgen.NewZipfKeys(12, 1.2, 1000), 10000)
	withNil := Score(keys, nil)
	if withNil.LoadScore != 0 {
		t.Fatal("nil gaps must skip load score")
	}
	if withNil.Overall <= 0 {
		t.Fatal("re-weighted overall must still reflect other dimensions")
	}
}

func TestScoresBounded(t *testing.T) {
	gens := []distgen.Generator{
		distgen.NewUniform(1, 0, 100),
		distgen.NewZipfKeys(2, 2.0, 10),
		distgen.NewSequential(3, 0, 1),
		distgen.NewEmail(4),
	}
	for _, g := range gens {
		r := Score(distgen.Keys(g, 5000), nil)
		for name, v := range map[string]float64{
			"skew": r.SkewScore, "shape": r.ShapeScore,
			"drift": r.DriftScore, "overall": r.Overall,
		} {
			if v < 0 || v > 1 {
				t.Fatalf("%s: %s score %v out of [0,1]", g.Name(), name, v)
			}
		}
	}
}

func TestSingleKeyTrace(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = 42
	}
	r := Score(keys, nil)
	if r.SkewScore != 1 {
		t.Fatalf("single-key skew = %v", r.SkewScore)
	}
	if r.ShapeScore != 0 {
		t.Fatalf("single-key shape = %v", r.ShapeScore)
	}
}

func TestGradeBands(t *testing.T) {
	for _, c := range []struct {
		score float64
		want  string
	}{
		{0.9, "excellent benchmark input"},
		{0.5, "good benchmark input"},
		{0.3, "marginal: consider adding drift or skew"},
		{0.05, "poor: too uniform/static to exercise a learned system"},
	} {
		if got := Grade(c.score); got != c.want {
			t.Fatalf("Grade(%v) = %q", c.score, got)
		}
	}
}

func TestReportString(t *testing.T) {
	if (Report{}).String() == "" {
		t.Fatal("empty report string")
	}
}
