package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/distgen"
	"repro/internal/quality"
	"repro/internal/similarity"
	"repro/internal/stats"
)

// drain pulls n ops/gaps from a source into fresh slices.
func drain(src Source, n int) ([]Op, []int64) {
	ops := make([]Op, n)
	gaps := make([]int64, n)
	const batch = 256
	for i := 0; i < n; i += batch {
		bn := batch
		if rest := n - i; bn > rest {
			bn = rest
		}
		src.Fill(ops[i:i+bn], gaps[i:i+bn], i, n)
	}
	return ops, gaps
}

// opMix returns per-type fractions.
func opMix(ops []Op) [numOpTypes]float64 {
	var m [numOpTypes]float64
	for _, op := range ops {
		m[op.Type]++
	}
	for i := range m {
		m[i] /= float64(len(ops))
	}
	return m
}

// headMass returns the fraction of accesses landing on any segment's head
// keys.
func headMass(ops []Op, st *TraceStats) float64 {
	in := make(map[uint64]bool)
	for _, sg := range st.Segments {
		for _, kc := range sg.Head {
			in[kc.Key] = true
		}
	}
	hits := 0
	for _, op := range ops {
		if in[op.Key] {
			hits++
		}
	}
	return float64(hits) / float64(len(ops))
}

func meanGap(gaps []int64) float64 {
	var s float64
	for _, g := range gaps {
		s += float64(g)
	}
	return s / float64(len(gaps))
}

// TestSynthesizerFidelity fits statistics from a recorded skewed stream
// and requires the synthesized stream to match it on op mix, head-key
// popularity mass, and mean inter-arrival gap — the PBench contract that
// fitted load looks like the source load. All seeds fixed; bounds
// deterministic.
func TestSynthesizerFidelity(t *testing.T) {
	const n = 60_000
	spec := Spec{
		Name:   "fit-src",
		Mix:    Mix{GetFrac: 0.55, PutFrac: 0.3, DeleteFrac: 0.05, ScanFrac: 0.1, ScanLimit: 64},
		Access: distgen.Static{G: distgen.NewZipfKeys(11, 1.2, 1<<18)},
	}
	srcOps, srcGaps := drain(NewSource(spec, NewPoisson(13, 250_000), 29), n)
	st := FitStream(srcOps, srcGaps, FitOptions{})

	synth := NewSynthesizer(st, 31, 0)
	synOps, synGaps := drain(synth, n)

	// Operation mix within 1.5 points per type.
	want, got := opMix(srcOps), opMix(synOps)
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > 0.015 {
			t.Errorf("op %s mix: source %.4f, synth %.4f (Δ %.4f)", OpType(i), want[i], got[i], d)
		}
	}

	// Key-popularity skew: the fitted head must carry the same share of
	// accesses in the synthesized stream (within 3 points). A zipf(1.2)
	// head carries a large mass, so this genuinely tests the skew.
	hm, sm := headMass(srcOps, st), headMass(synOps, st)
	if hm < 0.2 {
		t.Fatalf("source head mass %.3f too small; fixture lost its skew", hm)
	}
	if d := math.Abs(hm - sm); d > 0.03 {
		t.Errorf("head mass: source %.4f, synth %.4f (Δ %.4f)", hm, sm, d)
	}

	// Mean inter-arrival within 15% (quarter-octave buckets bound the
	// within-bucket error well under that).
	mg, sg := meanGap(srcGaps), meanGap(synGaps)
	if mg <= 0 {
		t.Fatal("source mean gap is zero; fixture lost its arrival process")
	}
	if r := sg / mg; r < 0.85 || r > 1.15 {
		t.Errorf("mean gap: source %.0fns, synth %.0fns (ratio %.3f)", mg, sg, r)
	}

	// Scans carry the fitted limit.
	for _, op := range synOps {
		if op.Type == Scan && op.ScanLimit != st.ScanLimit {
			t.Fatalf("scan limit %d, want fitted %d", op.ScanLimit, st.ScanLimit)
		}
	}
}

// TestSynthesizerDeterminism: same (stats, seed) → identical stream;
// Reset reproduces it; a different seed diverges.
func TestSynthesizerDeterminism(t *testing.T) {
	ops, gaps := drain(NewSource(mixedSpec(2), NewPoisson(3, 100_000), 5), 8000)
	st := FitStream(ops, gaps, FitOptions{})

	a1, g1 := drain(NewSynthesizer(st, 7, 0.3), 5000)
	a2, g2 := drain(NewSynthesizer(st, 7, 0.3), 5000)
	for i := range a1 {
		if a1[i] != a2[i] || g1[i] != g2[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}

	s := NewSynthesizer(st, 7, 0.3)
	drain(s, 1234)
	s.Reset(7)
	a3, g3 := drain(s, 5000)
	for i := range a1 {
		if a1[i] != a3[i] || g1[i] != g3[i] {
			t.Fatalf("Reset did not reproduce the stream at op %d", i)
		}
	}

	b, _ := drain(NewSynthesizer(st, 8, 0.3), 5000)
	same := 0
	for i := range a1 {
		if a1[i] == b[i] {
			same++
		}
	}
	if same == len(a1) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSynthesizerRepetition checks the Redbench knob: with repeatFrac set,
// the window-hit rate (key seen among the last synthWindow issued keys)
// rises to roughly the requested rate over a low-repetition base workload.
func TestSynthesizerRepetition(t *testing.T) {
	// Uniform base load over a large keyspace: natural window hits ~0.
	spec := Spec{
		Name:   "uniform",
		Mix:    Mix{GetFrac: 1},
		Access: distgen.Static{G: distgen.NewUniform(3, 0, 1<<40)},
	}
	ops, gaps := drain(NewSource(spec, nil, 17), 30_000)
	st := FitStream(ops, gaps, FitOptions{})

	hitRate := func(ops []Op) float64 {
		seen := make(map[uint64]int)
		var ring [synthWindow]uint64
		hits := 0
		for i, op := range ops {
			if seen[op.Key] > 0 {
				hits++
			}
			if i >= synthWindow {
				old := ring[i%synthWindow]
				if seen[old]--; seen[old] == 0 {
					delete(seen, old)
				}
			}
			ring[i%synthWindow] = op.Key
			seen[op.Key]++
		}
		return float64(hits) / float64(len(ops))
	}

	base, _ := drain(NewSynthesizer(st, 5, 0), 30_000)
	rep, _ := drain(NewSynthesizer(st, 5, 0.6), 30_000)
	br, rr := hitRate(base), hitRate(rep)
	if br > 0.15 {
		t.Fatalf("base window-hit rate %.3f too high; fixture not low-repetition", br)
	}
	if rr < 0.5 || rr > 0.7 {
		t.Errorf("repeat window-hit rate %.3f, want ≈0.6", rr)
	}
}

// driftingTrace builds a stream of gets with a hot-key head, a heavy
// marginal, and drift across the stream — the shape of a production trace.
func driftingTrace(n int, seed uint64) []Op {
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(rng.Split(), 1.3, 50)
	d := distgen.NewBlend(seed+1,
		distgen.NewLognormal(seed+2, 0, 1.5, 1e12),
		distgen.NewClustered(seed+3, 8, 1e9))
	out := make([]Op, n)
	for i := range out {
		if rng.Float64() < 0.3 {
			// Hot head: 30% of refs hit 50 popular keys.
			out[i].Key = 7777000 + zipf.Next()
		} else {
			out[i].Key = distgen.KeysAt(d, float64(i)/float64(n), 1)[0]
		}
	}
	return out
}

func keysOf(ops []Op) []uint64 {
	keys := make([]uint64, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	return keys
}

// synthKeys draws n keys from a synthesizer over st without repetition.
func synthKeys(st *TraceStats, n int, seed uint64) []uint64 {
	ops, _ := drain(NewSynthesizer(st, seed, 0), n)
	return keysOf(ops)
}

// headShare returns the fraction of accesses on segment sg's head.
func headShare(sg Segment) float64 {
	var h int64
	for _, kc := range sg.Head {
		h += kc.Count
	}
	return float64(h) / float64(sg.Ops)
}

// TestSynthesizerKeepsDrift: a drifting stream fits into phaseSlices
// segments, and the synthesized stream matches the original's key
// marginal over the whole stream and in every segment, and keeps its
// drift score.
func TestSynthesizerKeepsDrift(t *testing.T) {
	ops := driftingTrace(40000, 1)
	st := FitStream(ops, nil, FitOptions{})
	if len(st.Segments) != phaseSlices {
		t.Fatalf("%d segments, want %d", len(st.Segments), phaseSlices)
	}
	orig, syn := keysOf(ops), synthKeys(st, len(ops), 2)
	if d := similarity.KS(orig, syn); d > 0.02 {
		t.Errorf("whole stream: KS(orig, synth) = %.4f", d)
	}
	segs := len(st.Segments)
	for s := 0; s < segs; s++ {
		o := orig[s*len(orig)/segs : (s+1)*len(orig)/segs]
		y := syn[s*len(syn)/segs : (s+1)*len(syn)/segs]
		if d := similarity.KS(o, y); d > 0.05 {
			t.Errorf("segment %d: KS(orig, synth) = %.4f", s, d)
		}
	}
	oq, sq := quality.Score(orig, nil), quality.Score(syn, nil)
	if d := math.Abs(oq.DriftScore - sq.DriftScore); d > 0.1 {
		t.Errorf("drift score: orig %.3f, synth %.3f", oq.DriftScore, sq.DriftScore)
	}
}

// TestSynthesizerWalksPhases: a two-phase recording of unequal phases
// synthesizes into a stream whose first and second parts, split at the
// recorded op share, each look like their recorded phase.
func TestSynthesizerWalksPhases(t *testing.T) {
	a := getsFrom(distgen.NewUniform(1, 0, 1<<30), 10_000)
	b := getsFrom(distgen.NewClustered(2, 4, 1e9), 30_000)
	tr := &Trace{Phases: []TracePhase{{Ops: a}, {Index: 1, Ops: b}}}
	st := FitTrace(tr, FitOptions{})
	syn := synthKeys(st, 40_000, 3)
	for i, c := range []struct{ rec, syn []uint64 }{
		{keysOf(a), syn[:10_000]},
		{keysOf(b), syn[10_000:]},
	} {
		if d := similarity.KS(c.rec, c.syn); d > 0.05 {
			t.Errorf("phase %d: KS(recorded, synth) = %.4f", i, d)
		}
	}
}

// getsFrom returns n gets on keys drawn from g.
func getsFrom(g distgen.Generator, n int) []Op {
	ops := make([]Op, n)
	for i, k := range distgen.Keys(g, n) {
		ops[i].Key = k
	}
	return ops
}

func TestSynthPreservesDrift(t *testing.T) {
	ops := driftingTrace(40000, 3)
	orig := keysOf(ops)
	syn := synthKeys(FitStream(ops, nil, FitOptions{}), len(ops), 4)
	oq, sq := quality.Score(orig, nil), quality.Score(syn, nil)
	if d := math.Abs(oq.DriftScore - sq.DriftScore); d > 0.2 {
		t.Fatalf("drift score diverged: orig %v vs synth %v", oq.DriftScore, sq.DriftScore)
	}
	if d := math.Abs(oq.SkewScore - sq.SkewScore); d > 0.25 {
		t.Fatalf("skew score diverged: orig %v vs synth %v", oq.SkewScore, sq.SkewScore)
	}
}

func TestSynthHidesHotKeyIdentities(t *testing.T) {
	st := FitStream(driftingTrace(20000, 5), nil, FitOptions{RemapSeed: 1234})
	// The original hot keys are 7777000..7777049: none may appear in the
	// model, yet every segment's head still carries their mass.
	for i, sg := range st.Segments {
		for _, kc := range sg.Head {
			if kc.Key >= 7777000 && kc.Key < 7777050 {
				t.Fatalf("segment %d: original hot key %d leaked into the model", i, kc.Key)
			}
		}
		if h := headShare(sg); h < 0.25 {
			t.Fatalf("segment %d: head share %.3f despite the 30%% hot head", i, h)
		}
	}
}

func TestSynthHotMassPreserved(t *testing.T) {
	ops := driftingTrace(30000, 6)
	orig := keysOf(ops)
	syn := synthKeys(FitStream(ops, nil, FitOptions{}), len(ops), 7)
	// Mass of keys individually above 0.5% of the stream.
	hot := func(keys []uint64) float64 {
		counts := map[uint64]int{}
		for _, k := range keys {
			counts[k]++
		}
		var mass int
		for _, c := range counts {
			if float64(c) >= 0.005*float64(len(keys)) {
				mass += c
			}
		}
		return float64(mass) / float64(len(keys))
	}
	if o, s := hot(orig), hot(syn); math.Abs(o-s) > 0.1 {
		t.Fatalf("hot mass diverged: orig %v vs synth %v", o, s)
	}
}

// TestRemapFidelityCost quantifies the privacy/fidelity tension of §V-C:
// anonymizing head keys (RemapSeed != 0) costs marginal fidelity, but the
// KS penalty is bounded by the displaced head mass.
func TestRemapFidelityCost(t *testing.T) {
	ops := driftingTrace(40000, 1)
	orig := keysOf(ops)
	plain := FitStream(ops, nil, FitOptions{})
	anon := FitStream(ops, nil, FitOptions{RemapSeed: 99})
	ksPlain := similarity.KS(orig, synthKeys(plain, len(ops), 2))
	ksAnon := similarity.KS(orig, synthKeys(anon, len(ops), 2))
	if ksAnon <= ksPlain {
		t.Fatalf("anonymization should cost fidelity: plain %v, anon %v", ksPlain, ksAnon)
	}
	if bound := headShare(anon.Segments[0]); ksAnon > ksPlain+bound+0.05 {
		t.Fatalf("anonymization penalty %v exceeds head-mass bound %v", ksAnon-ksPlain, bound)
	}
}

func TestFitErrors(t *testing.T) {
	st := FitStream(nil, nil, FitOptions{})
	if st.Ops != 0 || len(st.Segments) != 0 {
		t.Fatalf("empty stream fitted %+v", st)
	}
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStats(&buf); err == nil {
		t.Fatal("ReadStats accepted an empty model")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSynthesizer accepted empty stats")
		}
	}()
	NewSynthesizer(st, 1, 0)
}

func TestFitShortTrace(t *testing.T) {
	ops := getsFrom(distgen.NewUniform(8, 0, 1000), 100)
	st := FitStream(ops, nil, FitOptions{})
	if len(st.Segments) != 1 {
		t.Fatalf("100 ops fitted into %d segments, want 1", len(st.Segments))
	}
	if n := len(synthKeys(st, 100, 9)); n != 100 {
		t.Fatalf("synthesized %d", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	st := FitStream(driftingTrace(10000, 10), nil, FitOptions{})
	a := synthKeys(st, 5000, 11)
	if !reflect.DeepEqual(a, synthKeys(st, 5000, 11)) {
		t.Fatal("generation not deterministic")
	}
	// An empty fill writes nothing and draws nothing.
	s := NewSynthesizer(st, 11, 0)
	if n := s.Fill(nil, nil, 0, 0); n != 0 {
		t.Fatalf("empty fill wrote %d ops", n)
	}
	ops, _ := drain(s, 5000)
	if !reflect.DeepEqual(a, keysOf(ops)) {
		t.Fatal("an empty fill moved the stream")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	st := FitStream(driftingTrace(20000, 12), nil, FitOptions{RemapSeed: 5})
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("round trip changed the model")
	}
	if !reflect.DeepEqual(synthKeys(st, 1000, 13), synthKeys(st2, 1000, 13)) {
		t.Fatal("round-tripped model synthesizes differently")
	}
}

// validStats is the smallest valid model: one segment, a one-key head,
// and a two-knot tail.
const validStats = `{"ops": 4, "opCounts": [4, 0, 0, 0], "segments": [{"ops": 4, "head": [{"key": 1, "count": 2}], "knots": [5, 9]}], "gapBuckets": [4]}`

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadStats(strings.NewReader(validStats)); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := map[string]string{
		"empty":          ``,
		"truncated":      validStats[:len(validStats)/2],
		"not an object":  `[1, 2, 3]`,
		"unknown field":  strings.Replace(validStats, `"ops": 4,`, `"ops": 4, "topKeys": [],`, 1),
		"trailing data":  validStats + `{}`,
		"zero op share":  `{"ops": 0, "segments": []}`,
		"mix short":      strings.Replace(validStats, `[4, 0, 0, 0]`, `[3, 0, 0, 0]`, 1),
		"negative op":    strings.Replace(validStats, `[4, 0, 0, 0]`, `[5, -1, 0, 0]`, 1),
		"negative head":  strings.Replace(validStats, `"count": 2`, `"count": -2`, 1),
		"head over ops":  strings.Replace(validStats, `"count": 2`, `"count": 5`, 1),
		"tail, one knot": strings.Replace(validStats, `[5, 9]`, `[5]`, 1),
		"knots, no tail": strings.Replace(validStats, `"count": 2`, `"count": 4`, 1),
		"unsorted knots": strings.Replace(validStats, `[5, 9]`, `[9, 5]`, 1),
		"segments short": strings.Replace(validStats, `"segments": [{"ops": 4,`, `"segments": [{"ops": 3,`, 1),
		"negative gap":   strings.Replace(validStats, `[4]}`, `[-4]}`, 1),
		"negative scan":  strings.Replace(validStats, `"gapBuckets"`, `"scanLimit": -1, "gapBuckets"`, 1),
		"knots over cap": strings.Replace(validStats, `[5, 9]`, "["+strings.Repeat("5, ", maxStatsLen)+"9]", 1),
		"segments over cap": `{"ops": 4, "opCounts": [4, 0, 0, 0], "segments": [` +
			strings.Repeat(`{"ops": 0}, `, maxStatsLen) + `{"ops": 4, "head": [{"key": 1, "count": 4}]}]}`,
	}
	for name, doc := range bad {
		if _, err := ReadStats(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadStats throws documents at the model decoder: it must never
// panic, and whatever it accepts must drive a Synthesizer and survive a
// write/read round trip unchanged.
func FuzzReadStats(f *testing.F) {
	write := func(st *TraceStats) []byte {
		var buf bytes.Buffer
		if err := st.Write(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// Small recordings keep the seeds small: the fuzzer minimizes every
	// input that finds new coverage, one exec per byte it tries to drop.
	spec := mixedSpec(2)
	spec.Access = distgen.Static{G: distgen.NewZipfKeys(2, 1.1, 80)}
	ops, gaps := drain(NewSource(spec, NewPoisson(3, 100_000), 5), 300)
	two := &Trace{Phases: []TracePhase{{Ops: ops[:100], Gaps: gaps[:100]}, {Index: 1, Ops: ops[100:], Gaps: gaps[100:]}}}
	for _, doc := range [][]byte{
		write(FitTrace(two, FitOptions{})),
		write(FitStream(driftingTrace(300, 1), nil, FitOptions{RemapSeed: 7})),
		[]byte(validStats),
	} {
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
	}
	for _, doc := range []string{``, `null`, `{}`, `{"ops": 1}`, "\x00\xff"} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadStats(bytes.NewReader(data))
		if err != nil {
			return
		}
		drain(NewSynthesizer(st, 1, 0.5), 512)
		var buf bytes.Buffer
		if err := st.Write(&buf); err != nil {
			t.Fatal(err)
		}
		st2, err := ReadStats(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("round trip changed the model: %+v vs %+v", st, st2)
		}
	})
}
