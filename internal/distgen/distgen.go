// Package distgen generates synthetic datasets whose key distributions
// imitate the real-world shapes the paper calls for (§V-C): skewed,
// clustered, segmented, and drifting distributions, alongside uniform
// baselines that the dataset-quality tool is supposed to penalize.
//
// Every generator is deterministic given its seed, produces sorted or
// unsorted uint64 keys on demand, and exposes its CDF family so the
// similarity estimators (KS, MMD) can position distributions relative to a
// baseline for the paper's Figure 1a.
package distgen

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/stats"
)

// KeyDomain is the inclusive upper bound used by generators that need a
// bounded key universe. 2^60 leaves headroom for drift shifts without
// overflow.
const KeyDomain = uint64(1) << 60

// Generator produces synthetic keys from a fixed distribution. Fill is how
// a key is drawn: every consumer, allocating or not, reads the one stream it
// advances.
type Generator interface {
	// Name identifies the distribution family and parameters, e.g.
	// "zipf(theta=1.1)". Names are used in reports and as registry keys.
	Name() string
	// Fill writes len(out) keys drawn from the distribution into out.
	// Keys may repeat; callers that need a set should use UniqueKeys.
	Fill(out []uint64)
}

// Keys returns n keys drawn from g in a fresh slice.
func Keys(g Generator, n int) []uint64 {
	out := make([]uint64, n)
	g.Fill(out)
	return out
}

// UniqueKeys draws from g until n distinct keys have been collected and
// returns them sorted ascending. It draws whole batches of n keys, at most
// 50 of them, and a caller that keeps drawing from g depends on that count.
// If 50 batches hold fewer than n distinct keys, it pads with the smallest
// unused keys from 1 up, so it always returns exactly n keys.
func UniqueKeys(g Generator, n int) []uint64 {
	// The seen set: linear probing over 2^ceil(log2 2n) slots from a
	// multiplicative hash. 0 marks a free slot; a drawn 0 sets seenZero.
	lg := bits.Len(uint(max(2*n-1, 1)))
	table := make([]uint64, 1<<lg)
	mask := uint64(len(table) - 1)
	seenZero := false
	add := func(k uint64) bool {
		if k == 0 {
			added := !seenZero
			seenZero = true
			return added
		}
		for i := (k * 0x9E3779B97F4A7C15) >> (64 - lg); ; i = (i + 1) & mask {
			switch table[i] {
			case k:
				return false
			case 0:
				table[i] = k
				return true
			}
		}
	}
	out := make([]uint64, 0, n)
	batch := make([]uint64, n)
	for attempts := 0; len(out) < n && attempts < 50; attempts++ {
		g.Fill(batch)
		for _, k := range batch {
			if add(k) {
				if out = append(out, k); len(out) == n {
					break
				}
			}
		}
	}
	// Deterministic padding for tiny-support distributions.
	for next := uint64(1); len(out) < n; next++ {
		if add(next) {
			out = append(out, next)
		}
	}
	radixSort(out, batch)
	return out
}

// radixSort sorts keys ascending by LSD radix over 8-bit digits, with buf
// (at least as long) as the second buffer. One read pass counts all eight
// digits; a digit every key shares is skipped, so 40-bit keys take five
// passes. The result always ends in keys.
func radixSort(keys, buf []uint64) {
	var counts [8][256]int
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := keys, buf[:len(keys)]
	for d := range counts {
		c := &counts[d]
		if len(keys) == 0 || c[byte(keys[0]>>(8*d))] == len(keys) {
			continue
		}
		for i, sum := 0, 0; i < len(c); i++ {
			c[i], sum = sum, sum+c[i]
		}
		for _, k := range src {
			b := byte(k >> (8 * d))
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	copy(keys, src)
}

// Uniform draws keys uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi uint64
	rng    *stats.RNG
}

// NewUniform returns a uniform generator over [lo, hi).
func NewUniform(seed uint64, lo, hi uint64) *Uniform {
	if hi <= lo {
		panic("distgen: NewUniform with hi <= lo")
	}
	return &Uniform{Lo: lo, Hi: hi, rng: stats.NewRNG(seed)}
}

// Name implements Generator.
func (u *Uniform) Name() string { return fmt.Sprintf("uniform[%d,%d)", u.Lo, u.Hi) }

// Fill implements Generator.
func (u *Uniform) Fill(out []uint64) {
	span := u.Hi - u.Lo
	for i := range out {
		out[i] = u.Lo + u.rng.Uint64()%span
	}
}

// Normal draws keys from a (truncated) normal distribution, rounded to
// integers and clamped to [0, KeyDomain).
type Normal struct {
	Mu, Sigma float64
	rng       *stats.RNG
}

// NewNormal returns a normal generator with the given mean and deviation.
func NewNormal(seed uint64, mu, sigma float64) *Normal {
	if sigma <= 0 {
		panic("distgen: NewNormal with non-positive sigma")
	}
	return &Normal{Mu: mu, Sigma: sigma, rng: stats.NewRNG(seed)}
}

// Name implements Generator.
func (g *Normal) Name() string { return fmt.Sprintf("normal(mu=%.3g,sigma=%.3g)", g.Mu, g.Sigma) }

// Fill implements Generator.
func (g *Normal) Fill(out []uint64) {
	for i := range out {
		out[i] = clampToDomain(g.Mu + g.Sigma*g.rng.NormFloat64())
	}
}

// Lognormal draws keys whose logarithm is normal — a heavy right tail that
// mimics, e.g., value sizes and inter-arrival gaps in production traces.
type Lognormal struct {
	Mu, Sigma float64 // parameters of the underlying normal
	Scale     float64 // multiplier applied after exponentiation
	rng       *stats.RNG
}

// NewLognormal returns a lognormal generator.
func NewLognormal(seed uint64, mu, sigma, scale float64) *Lognormal {
	if sigma <= 0 || scale <= 0 {
		panic("distgen: NewLognormal with non-positive sigma or scale")
	}
	return &Lognormal{Mu: mu, Sigma: sigma, Scale: scale, rng: stats.NewRNG(seed)}
}

// Name implements Generator.
func (g *Lognormal) Name() string {
	return fmt.Sprintf("lognormal(mu=%.3g,sigma=%.3g)", g.Mu, g.Sigma)
}

// Fill implements Generator.
func (g *Lognormal) Fill(out []uint64) {
	for i := range out {
		out[i] = clampToDomain(g.Scale * math.Exp(min(g.Mu+g.Sigma*g.rng.NormFloat64(), 700)))
	}
}

// ZipfKeys draws keys whose *frequency* follows a Zipf law over a scrambled
// universe — hot keys are scattered across the domain, as in YCSB.
type ZipfKeys struct {
	Theta    float64
	Universe uint64
	sampler  *stats.ScrambledZipf
}

// NewZipfKeys returns a Zipf-frequency generator over a universe of the
// given size.
func NewZipfKeys(seed uint64, theta float64, universe uint64) *ZipfKeys {
	return &ZipfKeys{
		Theta:    theta,
		Universe: universe,
		sampler:  stats.NewScrambledZipf(stats.NewRNG(seed), theta, universe),
	}
}

// Name implements Generator.
func (g *ZipfKeys) Name() string { return fmt.Sprintf("zipf(theta=%.3g,u=%d)", g.Theta, g.Universe) }

// Fill implements Generator.
func (g *ZipfKeys) Fill(out []uint64) {
	g.sampler.Fill(out)
	stride := max(KeyDomain/g.Universe, 1)
	for i := range out {
		out[i] *= stride
	}
}

// Clustered places keys in tight gaussian clusters around uniformly chosen
// centers, imitating geographic datasets such as OpenStreetMap cell IDs
// (the "osm" dataset of the SOSD benchmark).
type Clustered struct {
	NumClusters int
	Spread      float64 // sigma within a cluster, in key units
	centers     []float64
	rng         *stats.RNG
}

// NewClustered returns a clustered generator with the given cluster count
// and intra-cluster spread.
func NewClustered(seed uint64, numClusters int, spread float64) *Clustered {
	if numClusters <= 0 {
		panic("distgen: NewClustered with non-positive cluster count")
	}
	rng := stats.NewRNG(seed)
	centers := make([]float64, numClusters)
	for i := range centers {
		centers[i] = rng.Float64() * float64(KeyDomain)
	}
	sort.Float64s(centers)
	return &Clustered{NumClusters: numClusters, Spread: spread, centers: centers, rng: rng}
}

// Name implements Generator.
func (g *Clustered) Name() string {
	return fmt.Sprintf("clustered(k=%d,spread=%.3g)", g.NumClusters, g.Spread)
}

// Fill implements Generator.
func (g *Clustered) Fill(out []uint64) {
	for i := range out {
		c := g.centers[g.rng.Intn(len(g.centers))]
		out[i] = clampToDomain(c + g.Spread*g.rng.NormFloat64())
	}
}

// Segmented produces keys from piecewise-linear CDF segments with very
// different densities, imitating the "books" dataset (Amazon sales ranks)
// where ID density varies by region. Hard for a single linear model, easy
// for a segment-aware learned index.
type Segmented struct {
	Segments int
	bounds   []uint64  // len Segments+1, ascending
	weights  []float64 // cumulative probability per segment
	rng      *stats.RNG
}

// NewSegmented returns a generator with the given number of random-density
// segments.
func NewSegmented(seed uint64, segments int) *Segmented {
	if segments <= 0 {
		panic("distgen: NewSegmented with non-positive segments")
	}
	rng := stats.NewRNG(seed)
	bounds := make([]uint64, segments+1)
	bounds[segments] = KeyDomain
	for i := 1; i < segments; i++ {
		bounds[i] = rng.Uint64() % KeyDomain
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Random segment masses, skewed so a few segments dominate.
	weights := make([]float64, segments)
	var total float64
	for i := range weights {
		weights[i] = rng.ExpFloat64() * rng.ExpFloat64() // heavy-tailed mass
		total += weights[i]
	}
	cum := 0.0
	for i, w := range weights {
		cum += w / total
		weights[i] = cum
	}
	weights[segments-1] = 1
	return &Segmented{Segments: segments, bounds: bounds, weights: weights, rng: rng}
}

// Name implements Generator.
func (g *Segmented) Name() string { return fmt.Sprintf("segmented(s=%d)", g.Segments) }

// Fill implements Generator.
func (g *Segmented) Fill(out []uint64) {
	for i := range out {
		seg := min(sort.SearchFloat64s(g.weights, g.rng.Float64()), g.Segments-1)
		lo, hi := g.bounds[seg], g.bounds[seg+1]
		if hi <= lo {
			out[i] = lo
			continue
		}
		out[i] = lo + g.rng.Uint64()%(hi-lo)
	}
}

// Sequential produces strictly increasing keys with a configurable random
// gap, imitating auto-increment IDs and timestamp keys — the friendliest
// case for a learned index.
type Sequential struct {
	next   uint64
	MaxGap uint64
	rng    *stats.RNG
}

// NewSequential returns a sequential generator starting at start with gaps
// uniform in [1, maxGap].
func NewSequential(seed uint64, start, maxGap uint64) *Sequential {
	return &Sequential{next: start, MaxGap: max(maxGap, 1), rng: stats.NewRNG(seed)}
}

// Name implements Generator.
func (g *Sequential) Name() string { return fmt.Sprintf("sequential(gap<=%d)", g.MaxGap) }

// Fill implements Generator.
func (g *Sequential) Fill(out []uint64) {
	for i := range out {
		g.next += 1 + g.rng.Uint64()%g.MaxGap
		out[i] = g.next
	}
}

// Mixture draws from component generators with fixed probabilities. It is
// the building block for gradual distribution transitions: a drifting
// workload interpolates the mixture weight from 0 to 1.
type Mixture struct {
	Components []Generator
	Weights    []float64 // must sum to ~1
	rng        *stats.RNG
}

// NewMixture returns a mixture of components with the given weights.
func NewMixture(seed uint64, components []Generator, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("distgen: NewMixture components/weights mismatch")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("distgen: NewMixture negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("distgen: NewMixture zero total weight")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	return &Mixture{Components: components, Weights: norm, rng: stats.NewRNG(seed)}
}

// Name implements Generator.
func (g *Mixture) Name() string {
	return fmt.Sprintf("mixture(%d components)", len(g.Components))
}

// Fill implements Generator. Each key costs one Float64 from the mixture RNG
// plus one draw from the chosen component.
func (g *Mixture) Fill(out []uint64) {
	for i := range out {
		u, idx, cum := g.rng.Float64(), len(g.Weights)-1, 0.0
		for j, w := range g.Weights {
			if cum += w; u < cum {
				idx = j
				break
			}
		}
		g.Components[idx].Fill(out[i : i+1])
	}
}

func clampToDomain(x float64) uint64 {
	if x >= float64(KeyDomain) {
		return KeyDomain - 1
	}
	return uint64(max(x, 0))
}
