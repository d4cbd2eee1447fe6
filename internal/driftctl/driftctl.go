// Package driftctl parameterizes drift behind one scalar intensity knob.
//
// The distgen drift kinds are a handful of ad-hoc processes — blend,
// hotspot, growing skew — with no common intensity scale, so "adaptability
// versus drift" cannot be plotted as a curve. This package supplies the
// missing abstraction (NeurBench's drift factor): a Controller transports
// any base key distribution toward a target distribution with intensity
// D ∈ [0, 1], a PredicateDrift does the same for the sqlmini/card query
// stack (range location and selectivity), and a shared Knob drives both
// for correlated data+query drift. Divergence from the base is measured on
// the Kolmogorov–Smirnov scale via similarity.KS, so one D is comparable
// across zipf, uniform, clustered, or email bases — and can be normalized
// to a fixed divergence target.
//
// The Controller implements distgen.Drift, so it plugs into
// workload.Spec.Access/InsertKeys, workload.Source, scenario
// materialization, and every execution engine unchanged, with the
// zero-alloc hot path intact.
//
// Determinism is by construction: FillAt draws one base key, one target
// key, and one selection variate for every output key at every intensity,
// so the RNG streams consumed are identical at any D. D=0 emits the base
// stream byte-for-byte, and because a draw is substituted exactly when its
// selection variate falls below the effective intensity, the substituted
// positions at a lower D are a subset of those at a higher D — divergence
// from the base is monotone in D by coupling, not merely in expectation.
package driftctl

import (
	"fmt"

	"repro/internal/distgen"
	"repro/internal/similarity"
	"repro/internal/stats"
)

// Knob is the scalar drift-intensity schedule: a factor D in [0, 1] shaped
// over phase progress by a Profile. One Knob value shared between a data
// Controller and a PredicateDrift is the correlated data+query drift axis —
// a single schedule driving both.
type Knob struct {
	// Factor is the drift intensity D. 0 is the undrifted base workload;
	// 1 transports fully to the target.
	Factor float64
	// Profile shapes intensity over phase progress (zero value: constant).
	Profile Profile
}

// weightAt returns the effective intensity at the given progress.
func (k Knob) weightAt(p float64) float64 {
	w := k.Factor * k.Profile.At(p)
	if w < 0 {
		return 0
	}
	if w > 1 {
		return 1
	}
	return w
}

// String renders the knob for drift names.
func (k Knob) String() string {
	return fmt.Sprintf("D=%.2f,%s", k.Factor, k.Profile.Name())
}

// Controller transports a base key distribution toward a target with the
// knob's intensity: at progress p, each key is redrawn from the target with
// probability alpha(Factor·Profile(p)) and comes from the base otherwise.
// It implements distgen.Drift.
type Controller struct {
	base, target distgen.Generator
	knob         Knob
	rng          *stats.RNG
	// span is the measured KS distance between base and target (0 until
	// calibrated); norm, when positive, rescales intensity so a knob
	// factor of d yields an expected divergence of ~d·norm regardless of
	// the base/target pair.
	span float64
	norm float64
	tbuf [1]uint64
}

// New returns a controller over already-constructed generators. The
// controller consumes both generators' streams (one draw each per output
// key); use NewCalibrated to also measure the divergence span.
func New(seed uint64, base, target distgen.Generator, knob Knob) *Controller {
	if base == nil || target == nil {
		panic("driftctl: New requires base and target generators")
	}
	if knob.Factor < 0 || knob.Factor > 1 {
		panic("driftctl: knob factor outside [0,1]")
	}
	return &Controller{base: base, target: target, knob: knob, rng: stats.NewRNG(seed)}
}

// CalibrationSamples is the per-family sample size EstimateSpan draws when
// n is not positive.
const CalibrationSamples = 4096

// EstimateSpan measures the KS distance between the base and target
// families. It samples fresh instances built from the factories, so the
// streaming generators inside a controller are never disturbed.
func EstimateSpan(seed uint64, base, target func(seed uint64) distgen.Generator, n int) float64 {
	if n <= 0 {
		n = CalibrationSamples
	}
	return similarity.KS(distgen.Keys(base(seed+0x51D1), n), distgen.Keys(target(seed+0xA0B3), n))
}

// NewCalibrated builds a controller from generator factories and measures
// the base→target divergence span on separate sample instances. When
// normTo is positive the intensity is rescaled so that a knob factor of d
// yields an expected KS divergence of ~d·normTo — the common intensity
// scale that makes D comparable across zipf/uniform/email bases.
func NewCalibrated(seed uint64, base, target func(seed uint64) distgen.Generator, knob Knob, normTo float64) *Controller {
	c := New(seed, base(seed+1), target(seed+2), knob)
	c.span = EstimateSpan(seed+3, base, target, 0)
	if normTo > 0 {
		c.norm = normTo
	}
	return c
}

// alpha maps a raw intensity weight to the target-selection probability,
// applying divergence normalization when configured.
func (c *Controller) alpha(w float64) float64 {
	if c.norm > 0 && c.span > 0 {
		w *= c.norm / c.span
		if w > 1 {
			w = 1
		}
	}
	return w
}

// Divergence predicts the expected KS divergence from the base stream at
// intensity d (at full profile weight): the target-selection probability
// times the measured span. It returns 0 until calibrated.
func (c *Controller) Divergence(d float64) float64 {
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return c.alpha(d) * c.span
}

// Name implements distgen.Drift.
func (c *Controller) Name() string {
	return fmt.Sprintf("driftctl[%s](%s->%s)", c.knob, c.base.Name(), c.target.Name())
}

// FillAt implements distgen.Drift. Every output key costs one base
// draw, one target draw, and one selection variate regardless of
// intensity, so the consumed RNG streams — and therefore the emitted base
// keys — are identical at every D.
func (c *Controller) FillAt(p float64, out []uint64) {
	w := c.alpha(c.knob.weightAt(p))
	for i := range out {
		c.base.Fill(out[i : i+1])
		c.target.Fill(c.tbuf[:])
		if c.rng.Float64() < w {
			out[i] = c.tbuf[0]
		}
	}
}
