package synth

import (
	"bytes"
	"testing"

	"repro/internal/distgen"
	"repro/internal/quality"
	"repro/internal/similarity"
	"repro/internal/stats"
)

// driftingTrace builds a trace with a hot-key head, a heavy marginal, and
// mid-trace drift — the shape of a production trace.
func driftingTrace(n int, seed uint64) []uint64 {
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(rng.Split(), 1.3, 50)
	d := distgen.NewBlend(seed+1,
		distgen.NewLognormal(seed+2, 0, 1.5, 1e12),
		distgen.NewClustered(seed+3, 8, 1e9))
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			// Hot head: 30% of refs hit 50 popular keys.
			out = append(out, 7777000+zipf.Next())
		} else {
			out = append(out, distgen.KeysAt(d, float64(i)/float64(n), 1)[0])
		}
	}
	return out
}

func TestFitGenerateMarginalFidelity(t *testing.T) {
	orig := driftingTrace(40000, 1)
	m, err := Fit(orig, FitOptions{}) // no anonymization: full fidelity
	if err != nil {
		t.Fatal(err)
	}
	syn := m.Generate(40000, 2)
	if len(syn) != 40000 {
		t.Fatalf("generated %d keys", len(syn))
	}
	// Per-segment KS between original and synthetic must be small.
	segs := len(m.Segments)
	for s := 0; s < segs; s++ {
		o := orig[s*len(orig)/segs : (s+1)*len(orig)/segs]
		y := syn[s*len(syn)/segs : (s+1)*len(syn)/segs]
		if d := similarity.KS(o, y); d > 0.12 {
			t.Fatalf("segment %d: KS(orig, synth) = %v", s, d)
		}
	}
}

func TestSynthPreservesDrift(t *testing.T) {
	orig := driftingTrace(40000, 3)
	m, err := Fit(orig, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syn := m.Generate(40000, 4)
	oq := quality.Score(orig, nil)
	sq := quality.Score(syn, nil)
	if diff := oq.DriftScore - sq.DriftScore; diff > 0.2 || diff < -0.2 {
		t.Fatalf("drift score diverged: orig %v vs synth %v", oq.DriftScore, sq.DriftScore)
	}
	if diff := oq.SkewScore - sq.SkewScore; diff > 0.25 || diff < -0.25 {
		t.Fatalf("skew score diverged: orig %v vs synth %v", oq.SkewScore, sq.SkewScore)
	}
}

func TestSynthHidesHotKeyIdentities(t *testing.T) {
	orig := driftingTrace(20000, 5)
	m, err := Fit(orig, FitOptions{RemapSeed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	// Original hot keys are 7777000..7777049; none may appear among the
	// model's hot keys.
	for _, s := range m.Segments {
		for _, hk := range s.HotKeys {
			if hk >= 7777000 && hk < 7777050 {
				t.Fatalf("original hot key %d leaked into the model", hk)
			}
		}
		if len(s.HotKeys) == 0 {
			t.Fatal("no hot keys detected despite the 30% head")
		}
	}
}

func TestSynthHotMassPreserved(t *testing.T) {
	orig := driftingTrace(30000, 6)
	m, err := Fit(orig, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syn := m.Generate(30000, 7)
	headShare := func(trace []uint64) float64 {
		counts := map[uint64]int{}
		for _, k := range trace {
			counts[k]++
		}
		// Mass of keys individually above 0.5%.
		var mass int
		for _, c := range counts {
			if float64(c) >= 0.005*float64(len(trace)) {
				mass += c
			}
		}
		return float64(mass) / float64(len(trace))
	}
	o, s := headShare(orig), headShare(syn)
	if diff := o - s; diff > 0.1 || diff < -0.1 {
		t.Fatalf("hot mass diverged: orig %v vs synth %v", o, s)
	}
}

// TestRemapFidelityCost quantifies the privacy/fidelity tension of §V-C:
// anonymizing hot keys (RemapSeed != 0) costs marginal fidelity, but the
// KS penalty is bounded by the displaced hot mass.
func TestRemapFidelityCost(t *testing.T) {
	orig := driftingTrace(40000, 1)
	plain, err := Fit(orig, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	anon, err := Fit(orig, FitOptions{RemapSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ksPlain := similarity.KS(orig, plain.Generate(40000, 2))
	ksAnon := similarity.KS(orig, anon.Generate(40000, 2))
	if ksAnon <= ksPlain {
		t.Fatalf("anonymization should cost fidelity: plain %v, anon %v", ksPlain, ksAnon)
	}
	// The penalty is bounded by the hot mass (~0.3 here).
	var hotMass float64
	for _, p := range anon.Segments[0].HotProbs {
		hotMass += p
	}
	if ksAnon > ksPlain+hotMass+0.05 {
		t.Fatalf("anonymization penalty %v exceeds hot-mass bound %v", ksAnon-ksPlain, hotMass)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, FitOptions{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestFitShortTrace(t *testing.T) {
	trace := distgen.Keys(distgen.NewUniform(8, 0, 1000), 100)
	m, err := Fit(trace, FitOptions{NumSegments: 16, NumQuantiles: 64})
	if err != nil {
		t.Fatal(err)
	}
	syn := m.Generate(100, 9)
	if len(syn) != 100 {
		t.Fatalf("generated %d", len(syn))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m, err := Fit(driftingTrace(10000, 10), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Generate(5000, 11)
	b := m.Generate(5000, 11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
	}
	if m.Generate(0, 1) != nil {
		t.Fatal("n=0 must return nil")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	m, err := Fit(driftingTrace(20000, 12), FitOptions{RemapSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.TraceLen != m.TraceLen || len(m2.Segments) != len(m.Segments) {
		t.Fatal("header mismatch")
	}
	for i := range m.Segments {
		a, b := m.Segments[i], m2.Segments[i]
		if a.TotalRefs != b.TotalRefs || len(a.Quantiles) != len(b.Quantiles) ||
			len(a.HotKeys) != len(b.HotKeys) {
			t.Fatalf("segment %d structure mismatch", i)
		}
		for j := range a.Quantiles {
			if a.Quantiles[j] != b.Quantiles[j] {
				t.Fatalf("segment %d quantile %d mismatch", i, j)
			}
		}
	}
	// Round-tripped model generates identically.
	x := m.Generate(1000, 13)
	y := m2.Generate(1000, 13)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("round-tripped model generates differently")
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := Read(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("bad magic accepted")
	}
}
