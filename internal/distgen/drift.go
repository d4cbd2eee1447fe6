package distgen

import (
	"fmt"

	"repro/internal/stats"
)

// Drift produces keys from a distribution that changes over logical time.
// Progress is a number in [0, 1]: 0 is the start of the benchmark phase and
// 1 the end. The benchmark runner advances progress as queries complete, so
// the data/workload distribution evolves during a single run — the core
// requirement the paper derives in Lesson 1.
type Drift interface {
	// Name identifies the drift process for reports.
	Name() string
	// FillAt writes len(out) keys drawn from the distribution as it
	// exists at the given progress in [0, 1] into out.
	FillAt(progress float64, out []uint64)
}

// KeysAt returns n keys drawn from d at the given progress in a fresh slice.
func KeysAt(d Drift, progress float64, n int) []uint64 {
	out := make([]uint64, n)
	d.FillAt(progress, out)
	return out
}

// FillAt forwards to d.FillAt. It survives only because benchmark/layers.go
// calls it and that directory is frozen outside [benchmark] PRs; the next
// one calls the method and this function goes.
func FillAt(d Drift, progress float64, out []uint64) { d.FillAt(progress, out) }

// Static adapts a fixed Generator to the Drift interface (no change over
// time). It is the baseline Lesson-1 ablations compare against.
type Static struct{ G Generator }

// Name implements Drift.
func (s Static) Name() string { return "static:" + s.G.Name() }

// FillAt implements Drift.
func (s Static) FillAt(_ float64, out []uint64) { s.G.Fill(out) }

// Blend interpolates between a start and an end distribution: at progress p
// each key comes from End with probability shape(p) and from Start
// otherwise. With the default linear shape this is the paper's "slow
// transition"; with a step shape it is the "abrupt transition" (§V-B).
type Blend struct {
	Start, End Generator
	// Shape maps progress to the probability of drawing from End. Nil
	// means the identity (linear blend).
	Shape func(p float64) float64
	rng   *stats.RNG
	label string
}

// NewBlend returns a linear blend from start to end.
func NewBlend(seed uint64, start, end Generator) *Blend {
	return &Blend{Start: start, End: end, rng: stats.NewRNG(seed), label: "linear"}
}

// NewAbrupt returns a blend that switches instantaneously from start to end
// when progress crosses at (in [0,1]).
func NewAbrupt(seed uint64, start, end Generator, at float64) *Blend {
	return &Blend{
		Start: start, End: end,
		Shape: func(p float64) float64 {
			if p < at {
				return 0
			}
			return 1
		},
		rng:   stats.NewRNG(seed),
		label: fmt.Sprintf("abrupt@%.2f", at),
	}
}

// Name implements Drift.
func (b *Blend) Name() string {
	return fmt.Sprintf("blend[%s](%s->%s)", b.label, b.Start.Name(), b.End.Name())
}

// FillAt implements Drift.
func (b *Blend) FillAt(p float64, out []uint64) {
	p = min(max(p, 0), 1)
	w := p
	if b.Shape != nil {
		w = b.Shape(p)
	}
	for i := range out {
		if b.rng.Float64() < w {
			b.End.Fill(out[i : i+1])
		} else {
			b.Start.Fill(out[i : i+1])
		}
	}
}

// MovingHotspot concentrates a fraction of accesses on a window of the key
// domain that slides as progress advances — the classic diurnal "hot set
// moves with the sun" pattern reported for production KV stores.
type MovingHotspot struct {
	// HotFraction of draws land in the hot window (e.g. 0.9).
	HotFraction float64
	// WindowSize is the hot window width as a fraction of the domain.
	WindowSize float64
	// Laps is how many full domain traversals the window makes as
	// progress goes 0 -> 1.
	Laps float64
	rng  *stats.RNG
}

// NewMovingHotspot returns a moving-hotspot drift over the whole key domain.
func NewMovingHotspot(seed uint64, hotFraction, windowSize, laps float64) *MovingHotspot {
	if hotFraction < 0 || hotFraction > 1 || windowSize <= 0 || windowSize > 1 {
		panic("distgen: NewMovingHotspot parameter out of range")
	}
	return &MovingHotspot{
		HotFraction: hotFraction, WindowSize: windowSize, Laps: laps,
		rng: stats.NewRNG(seed),
	}
}

// Name implements Drift.
func (m *MovingHotspot) Name() string {
	return fmt.Sprintf("moving-hotspot(hot=%.2f,win=%.2f,laps=%.1f)",
		m.HotFraction, m.WindowSize, m.Laps)
}

// FillAt implements Drift.
func (m *MovingHotspot) FillAt(p float64, out []uint64) {
	domain := float64(KeyDomain)
	start := p * m.Laps
	start -= float64(int(start)) // fractional lap position
	winLo := start * domain
	winSpan := m.WindowSize * domain
	for i := range out {
		if m.rng.Float64() < m.HotFraction {
			x := winLo + m.rng.Float64()*winSpan
			if x >= domain {
				x -= domain // wrap around
			}
			out[i] = uint64(x)
		} else {
			out[i] = m.rng.Uint64() % KeyDomain
		}
	}
}

// GrowingSkew starts uniform and sharpens into a Zipf distribution whose
// theta grows with progress — the paper's "growing data skew over time".
type GrowingSkew struct {
	MaxTheta float64
	Universe uint64
	seed     uint64
	// The generator for the current (quantized) theta: consecutive draws
	// at one theta continue one stream instead of restarting it.
	lastTheta float64
	zipf      *ZipfKeys
}

// NewGrowingSkew returns a drift whose skew grows from ~0 to maxTheta.
func NewGrowingSkew(seed uint64, maxTheta float64, universe uint64) *GrowingSkew {
	return &GrowingSkew{MaxTheta: maxTheta, Universe: universe, seed: seed}
}

// Name implements Drift.
func (g *GrowingSkew) Name() string {
	return fmt.Sprintf("growing-skew(max=%.2f)", g.MaxTheta)
}

// FillAt implements Drift.
func (g *GrowingSkew) FillAt(p float64, out []uint64) {
	p = min(max(p, 0), 1)
	theta := max(0.05+p*(g.MaxTheta-0.05), 0.05)
	// Quantize theta before comparing, so the sampler is rebuilt (and
	// reseeded) only when theta crosses a 0.01 grid line: at most ~100 times.
	theta = float64(int(theta*100)) / 100
	if g.zipf == nil || theta != g.lastTheta {
		g.zipf = NewZipfKeys(g.seed^uint64(theta*1000), theta, g.Universe)
		g.lastTheta = theta
	}
	g.zipf.Fill(out)
}

// Replay feeds a recorded key sequence as a Drift source, wrapping around
// when exhausted. It is how recorded or synthesized traces (package synth)
// are driven through the benchmark; progress is ignored because the trace
// itself encodes any drift.
type Replay struct {
	keys []uint64
	idx  int
}

// NewReplay returns a replay source over the trace (which must be
// non-empty). The trace is not copied; callers must not mutate it.
func NewReplay(trace []uint64) *Replay {
	if len(trace) == 0 {
		panic("distgen: NewReplay with empty trace")
	}
	return &Replay{keys: trace}
}

// Name implements Drift.
func (r *Replay) Name() string { return fmt.Sprintf("replay(%d keys)", len(r.keys)) }

// FillAt implements Drift. idx is the next position, wrapped by a compare:
// a division per key was ≈ 1 % of a mem-point op.
func (r *Replay) FillAt(_ float64, out []uint64) {
	for i := range out {
		out[i] = r.keys[r.idx]
		if r.idx++; r.idx == len(r.keys) {
			r.idx = 0
		}
	}
}

// Schedule sequences multiple Drift segments, each occupying an equal share
// of progress. It lets a scenario chain, e.g., static -> abrupt shift ->
// moving hotspot in one run ("define how many different workload and data
// distributions to use and in which order", §V-B).
type Schedule struct {
	Segments []Drift
}

// NewSchedule returns a schedule over the given segments.
func NewSchedule(segments ...Drift) *Schedule {
	if len(segments) == 0 {
		panic("distgen: NewSchedule with no segments")
	}
	return &Schedule{Segments: segments}
}

// Name implements Drift.
func (s *Schedule) Name() string { return fmt.Sprintf("schedule(%d segments)", len(s.Segments)) }

// FillAt implements Drift.
func (s *Schedule) FillAt(p float64, out []uint64) {
	if p >= 1 {
		p = 0.999999
	}
	p = max(p, 0)
	k := len(s.Segments)
	idx := int(p * float64(k))
	local := p*float64(k) - float64(idx)
	s.Segments[idx].FillAt(local, out)
}
