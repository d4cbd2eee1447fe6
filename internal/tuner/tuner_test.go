package tuner

import (
	"math"
	"testing"

	"repro/internal/kv"
	"repro/internal/stats"
)

// syntheticEval scores knobs with a smooth unimodal function peaking at a
// known optimum, so tuner behaviour is testable without running workloads.
func syntheticEval(k kv.Knobs) float64 {
	score := 1000.0
	score -= math.Abs(math.Log2(float64(k.MemtableCap))-math.Log2(16384)) * 50
	score -= math.Abs(float64(k.MaxRuns)-4) * 30
	score -= math.Abs(math.Log2(float64(k.SparseEvery))-math.Log2(32)) * 20
	score -= math.Abs(float64(k.BloomBitsPerKey)-16) * 10
	return score
}

func TestHillClimbConvergesOnUnimodal(t *testing.T) {
	// syntheticEval peaks, penalty-free, at exactly these knobs.
	truth := syntheticEval(kv.Knobs{MemtableCap: 16384, MaxRuns: 4, SparseEvery: 32, BloomBitsPerKey: 16})
	res := HillClimb(syntheticEval, kv.DefaultKnobs(), 60, 1)
	if res.BestScore < truth-1e-9 {
		t.Fatalf("hill climb best %.1f below optimum %.1f", res.BestScore, truth)
	}
	if res.Evaluations > 60 {
		t.Fatalf("budget exceeded: %d", res.Evaluations)
	}
}

func TestHillClimbRespectsBudget(t *testing.T) {
	calls := 0
	eval := func(k kv.Knobs) float64 { calls++; return syntheticEval(k) }
	res := HillClimb(eval, kv.DefaultKnobs(), 10, 2)
	if calls != res.Evaluations || calls > 10 {
		t.Fatalf("calls=%d evaluations=%d", calls, res.Evaluations)
	}
	if HillClimb(eval, kv.DefaultKnobs(), 0, 1).Evaluations != 0 {
		t.Fatal("zero budget must not evaluate")
	}
}

func TestHillClimbDeterministic(t *testing.T) {
	a := HillClimb(syntheticEval, kv.DefaultKnobs(), 40, 7)
	b := HillClimb(syntheticEval, kv.DefaultKnobs(), 40, 7)
	if a.Best != b.Best || a.BestScore != b.BestScore || len(a.Trace) != len(b.Trace) {
		t.Fatal("hill climb not deterministic")
	}
}

// randomSearch is the baseline HillClimb has to beat: the best score among
// budget uniformly drawn points of the knob space.
func randomSearch(eval Evaluator, budget int, seed uint64) float64 {
	rng := stats.NewRNG(seed)
	space := kv.Space()
	best := math.Inf(-1)
	for i := 0; i < budget; i++ {
		best = math.Max(best, eval(space[rng.Intn(len(space))]))
	}
	return best
}

func TestHillClimbBeatsRandomOnAverage(t *testing.T) {
	// Same small budget; hill climbing should match or beat random
	// search on a unimodal surface for most seeds.
	wins := 0
	const trials = 10
	for seed := uint64(0); seed < trials; seed++ {
		h := HillClimb(syntheticEval, kv.DefaultKnobs(), 25, seed)
		if h.BestScore >= randomSearch(syntheticEval, 25, seed) {
			wins++
		}
	}
	if wins < trials*6/10 {
		t.Fatalf("hill climb won only %d/%d trials", wins, trials)
	}
}

func TestTraceBestSoFarMonotone(t *testing.T) {
	for _, res := range []Result{HillClimb(syntheticEval, kv.DefaultKnobs(), 50, 3)} {
		prev := math.Inf(-1)
		for i, s := range res.Trace {
			if s.BestSoFar < prev {
				t.Fatalf("BestSoFar regressed at step %d", i)
			}
			prev = s.BestSoFar
		}
		if prev != res.BestScore {
			t.Fatalf("final BestSoFar %.1f != BestScore %.1f", prev, res.BestScore)
		}
	}
}

func TestNeighborsAdjacency(t *testing.T) {
	k := kv.Knobs{MemtableCap: 4096, MaxRuns: 4, SparseEvery: 128, BloomBitsPerKey: 8}
	nbs := neighbors(k)
	if len(nbs) != 8 { // two directions in each of 4 dimensions (interior point)
		t.Fatalf("interior point has %d neighbors", len(nbs))
	}
	for _, nb := range nbs {
		diffs := 0
		if nb.MemtableCap != k.MemtableCap {
			diffs++
		}
		if nb.MaxRuns != k.MaxRuns {
			diffs++
		}
		if nb.SparseEvery != k.SparseEvery {
			diffs++
		}
		if nb.BloomBitsPerKey != k.BloomBitsPerKey {
			diffs++
		}
		if diffs != 1 {
			t.Fatalf("neighbor differs in %d dims: %+v", diffs, nb)
		}
	}
	// Corner point has fewer neighbors.
	corner := kv.Knobs{MemtableCap: 1024, MaxRuns: 2, SparseEvery: 32, BloomBitsPerKey: 0}
	if len(neighbors(corner)) != 4 {
		t.Fatalf("corner point has %d neighbors", len(neighbors(corner)))
	}
}

func TestDBACurveShape(t *testing.T) {
	curve := DBACurve(syntheticEval, DBAScript())
	if len(curve) != len(DBAScript())+1 {
		t.Fatalf("curve has %d points", len(curve))
	}
	if curve[0].Hours != 0 {
		t.Fatal("point 0 must be free")
	}
	prev := -1.0
	for i, p := range curve {
		if p.Hours < prev {
			t.Fatalf("hours not cumulative at %d", i)
		}
		prev = p.Hours
	}
	// The full script lands on a strong configuration for the synthetic
	// surface (it was written for read-mostly workloads like this one).
	if curve[len(curve)-1].Score <= curve[0].Score {
		t.Fatal("DBA script did not improve over untuned default")
	}
}

func TestStepString(t *testing.T) {
	s := Step{Knobs: kv.DefaultKnobs(), Score: 5, BestSoFar: 6}
	if s.String() == "" {
		t.Fatal("empty step string")
	}
}
