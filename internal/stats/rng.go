// Package stats provides the deterministic random-number generation,
// sampling, and descriptive-statistics primitives shared by every other
// package in LSBench.
//
// Benchmarks must be reproducible: two runs with the same scenario seed must
// issue the same operations in the same order regardless of Go version or
// platform. The math/rand global source does not guarantee a stable stream
// across releases, so LSBench uses its own splitmix64/xoshiro256** generator
// with a fully specified algorithm.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**
// seeded via splitmix64). It is NOT safe for concurrent use; each driver
// worker owns its own RNG forked from the scenario seed with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm = splitmix64(&sm)
		r.s[i] = sm
	}
	// xoshiro must not be seeded with all zeros.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	return Mix64(*state)
}

// Mix64 is the splitmix64 finalizer (Steele et al.): full-avalanche
// bijective mixing of a 64-bit value. Hashes that must agree across
// processes and runs (fault membership) are built on it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split forks a statistically independent generator. The fork is a pure
// function of the parent's state, so forking is itself deterministic.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A55A5A5A5A)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (polar Marsaglia method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
