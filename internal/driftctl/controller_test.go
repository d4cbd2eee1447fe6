package driftctl

import (
	"math"
	"testing"

	"repro/internal/distgen"
	"repro/internal/similarity"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

const testN = 8192

func zipfBase(seed uint64) distgen.Generator { return distgen.NewZipfKeys(seed, 1.1, 1<<20) }
func uniformTarget(seed uint64) distgen.Generator {
	return distgen.NewUniform(seed, 0, distgen.KeyDomain)
}

// lowHalf and highHalf occupy disjoint halves of the key domain — a
// base/target pair whose KS span is exactly 1, so divergence measurements
// are far above sampling noise.
func lowHalf(seed uint64) distgen.Generator {
	return distgen.NewUniform(seed, 0, distgen.KeyDomain/2)
}
func highHalf(seed uint64) distgen.Generator {
	return distgen.NewUniform(seed, distgen.KeyDomain/2, distgen.KeyDomain)
}

// streamWith draws one controller stream at factor d, filling in batches so
// batching itself is exercised.
func streamWith(base, target func(uint64) distgen.Generator, d float64, n, batch int) []uint64 {
	c := New(99, base(7), target(8), Knob{Factor: d})
	out := make([]uint64, n)
	for pos := 0; pos < n; pos += batch {
		end := pos + batch
		if end > n {
			end = n
		}
		c.FillAt(float64(pos)/float64(n), out[pos:end])
	}
	return out
}

// streamAt is streamWith over the canonical zipf→uniform pair.
func streamAt(d float64, n, batch int) []uint64 {
	return streamWith(zipfBase, uniformTarget, d, n, batch)
}

// TestControllerZeroIntensityByteIdentical pins the D=0 contract: the
// controller emits the undrifted base stream byte-for-byte, at any batching.
func TestControllerZeroIntensityByteIdentical(t *testing.T) {
	want := make([]uint64, testN)
	zipfBase(7).Fill(want)
	for _, batch := range []int{1, 7, 64, testN} {
		got := streamAt(0, testN, batch)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: key %d differs at D=0: got %d want %d", batch, i, got[i], want[i])
			}
		}
	}
}

// TestControllerCouplingAcrossIntensities pins the shared-RNG-stream
// contract: every output key at any D is either the base stream's or the
// target stream's key for that position, the positions substituted at a
// lower D are a subset of those at a higher D, and D=1 is the full target
// stream.
func TestControllerCouplingAcrossIntensities(t *testing.T) {
	base := streamAt(0, testN, 64)
	target := make([]uint64, testN)
	uniformTarget(8).Fill(target)

	var prev map[int]bool
	for _, d := range []float64{0, 0.25, 0.5, 0.75, 1} {
		out := streamAt(d, testN, 64)
		subs := map[int]bool{}
		for i := range out {
			switch out[i] {
			case base[i]:
			case target[i]:
				subs[i] = true
			default:
				t.Fatalf("D=%.2f: key %d is neither base nor target draw", d, i)
			}
		}
		for i := range prev {
			if !subs[i] && base[i] != target[i] {
				t.Fatalf("coupling broken: position %d substituted at a lower D but not at D=%.2f", i, d)
			}
		}
		prev = subs
	}
	full := streamAt(1, testN, 64)
	for i := range full {
		if full[i] != target[i] {
			t.Fatalf("D=1 key %d is not the target stream's", i)
		}
	}
}

// TestControllerDivergenceMonotoneInD: measured KS divergence from the
// base stream is (within sampling noise) non-decreasing in D and rises
// substantially from D=0 to D=1.
func TestControllerDivergenceMonotoneInD(t *testing.T) {
	base := streamWith(lowHalf, highHalf, 0, testN, 64)
	prev := 0.0
	for _, d := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		div := similarity.KS(streamWith(lowHalf, highHalf, d, testN, 64), base)
		if div < prev-0.02 {
			t.Fatalf("divergence not monotone: D=%.1f gives %.4f after %.4f", d, div, prev)
		}
		if div > prev {
			prev = div
		}
	}
	d0 := similarity.KS(streamWith(lowHalf, highHalf, 0, testN, 64), base)
	d1 := similarity.KS(streamWith(lowHalf, highHalf, 1, testN, 64), base)
	if d1-d0 < 0.2 {
		t.Fatalf("divergence barely moves across the knob: %.4f -> %.4f", d0, d1)
	}
}

// TestControllerDivergencePredicts: the calibrated Divergence(d) estimate
// matches the measured divergence of the emitted stream.
func TestControllerDivergencePredicts(t *testing.T) {
	for _, d := range []float64{0.3, 0.6, 1} {
		c := NewCalibrated(99, zipfBase, uniformTarget, Knob{Factor: d}, 0)
		out := distgen.KeysAt(c, 1, testN)
		bs := make([]uint64, testN)
		zipfBase(4242).Fill(bs)
		measured := similarity.KS(out, bs)
		if diff := math.Abs(c.Divergence(d) - measured); diff > 0.05 {
			t.Fatalf("D=%.1f: predicted divergence %.4f but measured %.4f", d, c.Divergence(d), measured)
		}
	}
}

// TestControllerNormalization: with a normalization target, one knob value
// yields comparable measured divergence across very different base/target
// families — the common intensity scale.
func TestControllerNormalization(t *testing.T) {
	const normTo = 0.25
	families := []struct {
		name         string
		base, target func(uint64) distgen.Generator
	}{
		{"low->high", lowHalf, highHalf},
		{"uniform->high", uniformTarget, highHalf},
	}
	spans := make([]float64, len(families))
	for i, f := range families {
		c := NewCalibrated(99, f.base, f.target, Knob{Factor: 1}, normTo)
		spans[i] = c.span
		out := distgen.KeysAt(c, 1, testN)
		bs := make([]uint64, testN)
		f.base(4242).Fill(bs)
		div := similarity.KS(out, bs)
		if math.Abs(div-normTo) > 0.06 {
			t.Fatalf("%s: normalized divergence %.4f, want ~%.2f (span %.4f)", f.name, div, normTo, c.span)
		}
	}
	if math.Abs(spans[0]-spans[1]) < 0.05 {
		t.Fatalf("test families too similar to exercise normalization: spans %.4f vs %.4f", spans[0], spans[1])
	}
}

// TestControllerThroughWorkloadGenerator: plugged into workload.Spec.Access
// at D=0, the controller leaves the full op stream (types, keys, values)
// byte-identical to the undrifted spec.
func TestControllerThroughWorkloadGenerator(t *testing.T) {
	spec := func(access distgen.Drift) workload.Spec {
		return workload.Spec{Mix: workload.Balanced, Access: access}
	}
	plain := workload.NewGenerator(spec(distgen.Static{G: zipfBase(7)}), 31)
	ctl := workload.NewGenerator(spec(New(99, zipfBase(7), uniformTarget(8), Knob{})), 31)
	for i := 0; i < 4096; i++ {
		p := float64(i) / 4096
		a, b := plain.Next(p), ctl.Next(p)
		if a != b {
			t.Fatalf("op %d differs at D=0: %+v vs %+v", i, a, b)
		}
	}
}

func TestProfiles(t *testing.T) {
	if w := Constant().At(0.3); w != 1 {
		t.Fatalf("const profile at 0.3 = %v", w)
	}
	if w := Ramp().At(0.25); w != 0.25 {
		t.Fatalf("ramp at 0.25 = %v", w)
	}
	if w := Step(0.5).At(0.4); w != 0 {
		t.Fatalf("step@0.5 at 0.4 = %v", w)
	}
	if w := Step(0.5).At(0.6); w != 1 {
		t.Fatalf("step@0.5 at 0.6 = %v", w)
	}
	if w := Sine(1).At(0.5); math.Abs(w-1) > 1e-9 {
		t.Fatalf("sine@1 at 0.5 = %v", w)
	}
	for _, s := range []string{"", "const", "ramp", "step", "step@0.3", "sine", "sine@2"} {
		if _, err := ParseProfile(s); err != nil {
			t.Fatalf("ParseProfile(%q): %v", s, err)
		}
	}
	if _, err := ParseProfile("nope"); err == nil {
		t.Fatal("ParseProfile accepted an unknown profile")
	}
	if _, err := ParseProfile("step@x"); err == nil {
		t.Fatal("ParseProfile accepted a malformed parameter")
	}
	k := Knob{Factor: 0.5, Profile: Ramp()}
	if w := k.weightAt(0.5); w != 0.25 {
		t.Fatalf("knob weight = %v", w)
	}
}

// TestPredicateDriftZeroIntensity: the D=0 predicate stream is
// byte-identical to an undrifted instance's, and D=1 transports the window
// to the target location with scaled width.
func TestPredicateDriftZeroIntensity(t *testing.T) {
	a := NewPredicateDrift(11, Knob{Factor: 0}, "val", 0, 64, 4096, 4)
	b := NewPredicateDrift(11, Knob{Factor: 0}, "val", 0, 64, 4096, 4)
	bAt := func(q *PredicateDrift, i int) sqlmini.Predicate { return q.PredicateAt(float64(i) / 512) }
	for i := 0; i < 512; i++ {
		if bAt(a, i) != bAt(b, i) {
			t.Fatalf("predicate %d differs between identical D=0 instances", i)
		}
	}
	z := NewPredicateDrift(11, Knob{Factor: 0}, "val", 0, 64, 4096, 4)
	for i := 0; i < 512; i++ {
		p := bAt(z, i)
		if p.Value >= 128 || p.Hi-p.Value != 64 {
			t.Fatalf("D=0 predicate escaped the base window: %+v", p)
		}
	}
	full := NewPredicateDrift(11, Knob{Factor: 1}, "val", 0, 64, 4096, 4)
	for i := 0; i < 512; i++ {
		p := bAt(full, i)
		if p.Value < 4096 || p.Hi-p.Value != 256 {
			t.Fatalf("D=1 predicate did not transport/scale: %+v", p)
		}
	}
}

// TestPredicateDriftSharedStream: every intensity consumes the same jitter
// stream — the recovered uniform variate of the i-th predicate is equal
// across D.
func TestPredicateDriftSharedStream(t *testing.T) {
	recoverU := func(d float64, n int) []float64 {
		q := NewPredicateDrift(11, Knob{Factor: d}, "val", 0, 64, 4096, 4)
		us := make([]float64, n)
		for i := range us {
			p := q.PredicateAt(0.5)
			w := q.knob.weightAt(0.5)
			lo := w * 4096
			width := 64 * (1 + w*3)
			us[i] = (float64(p.Value) - lo) / width
		}
		return us
	}
	ref := recoverU(0, 256)
	for _, d := range []float64{0.5, 1} {
		us := recoverU(d, 256)
		for i := range us {
			// uint64 truncation of the start loses < 1 value of width.
			if math.Abs(us[i]-ref[i]) > 1.0/64 {
				t.Fatalf("D=%.1f: jitter stream diverged at %d: %v vs %v", d, i, us[i], ref[i])
			}
		}
	}
}
