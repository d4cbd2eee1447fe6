package stats

import (
	"math"
	"runtime"

	"repro/internal/par"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^theta, using the rejection-inversion method of Hörmann and
// Derflinger, which is O(1) per sample for any theta > 0 (theta = 1 takes
// the series branches of helper1 and helper2).
//
// theta (the skew) around 0.99 matches the YCSB default; larger values
// concentrate more mass on the most popular items.
type Zipf struct {
	rng           *RNG
	n             uint64
	theta         float64
	oneMinusTheta float64
	hIntegralX1   float64
	hIntegralN    float64
	s             float64
}

// NewZipf returns a Zipf sampler over [0, n) with skew theta > 0.
func NewZipf(rng *RNG, theta float64, n uint64) *Zipf {
	if n == 0 {
		panic("stats: Zipf with n == 0")
	}
	if theta <= 0 {
		panic("stats: Zipf with non-positive theta")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.oneMinusTheta = 1 - theta
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.s = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

// hIntegral is the antiderivative of h(x) = x^-theta.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusTheta*logX) * logX
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.theta * math.Log(x))
}

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusTheta
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series expansion near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a series expansion near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next returns the next Zipf-distributed rank in [0, n). Rank 0 is the most
// popular item.
func (z *Zipf) Next() uint64 {
	for {
		if k, ok := z.try(z.rng.Uint64()); ok {
			return k
		}
	}
}

// try is one rejection round of Next on the raw RNG output raw: the rank it
// yields and whether the round accepted it. It never touches the RNG.
func (z *Zipf) try(raw uint64) (uint64, bool) {
	u := z.u(raw)
	x := z.hIntegralInv(u)
	k := uint64(x + 0.5)
	switch {
	case k < 1:
		k = 1
	case k > z.n:
		k = z.n
	}
	kf := float64(k)
	if kf-x <= z.s || u >= z.hIntegral(kf+0.5)-z.h(kf) {
		return k - 1, true
	}
	return 0, false
}

// u maps raw onto hIntegral's scale, from hIntegralN (rank n) at raw 0 down
// to hIntegralX1 (rank 1); each step rounds monotonically, so it never rises.
func (z *Zipf) u(raw uint64) float64 {
	return z.hIntegralN + float64(raw>>11)/(1<<53)*(z.hIntegralX1-z.hIntegralN)
}

// ScrambledZipf wraps Zipf so that the popular ranks are scattered across
// the whole key space instead of clustering at the low end, matching the
// YCSB "scrambled zipfian" access pattern.
type ScrambledZipf struct {
	z *Zipf
	n uint64
	// head (buildHead) is nil until served reaches fillParMin draws.
	head   *[1 << headBits]uint64
	served int
}

// NewScrambledZipf returns a scrambled Zipf sampler over [0, n).
func NewScrambledZipf(rng *RNG, theta float64, n uint64) *ScrambledZipf {
	return &ScrambledZipf{z: NewZipf(rng, theta, n), n: n}
}

// Next returns the next scrambled rank in [0, n).
func (s *ScrambledZipf) Next() uint64 {
	s.count(1)
	for {
		if r, ok := s.round(s.z.rng.Uint64()); ok {
			return r
		}
	}
}

// round is Zipf.try on raw, yielding the scrambled rank; a raw in a pure
// head bucket costs one table load.
func (s *ScrambledZipf) round(raw uint64) (uint64, bool) {
	if s.head != nil && s.head[raw>>headShift] != headImpure {
		return s.head[raw>>headShift], true
	}
	k, ok := s.z.try(raw)
	return fnvHash64(k) % s.n, ok
}

// count notes n more draws and builds the head table once fillParMin have
// been asked for, so a sampler that serves only a few never pays for it.
func (s *ScrambledZipf) count(n int) {
	if s.head == nil {
		if s.served += n; s.served >= fillParMin {
			s.head = s.buildHead()
		}
	}
}

// The head table has a bucket per value of a raw's top headBits bits.
// headImpure, above every rank, marks a bucket that is not pure; headMargin
// dwarfs the few ulps by which hIntegral and hIntegralInv can be off.
const (
	headBits   = 16
	headShift  = 64 - headBits
	headImpure = ^uint64(0)
	headMargin = 1e-6
)

// buildHead returns the head table. Bucket b holds the scrambled rank that
// z.try gives, through its squeeze test, every raw with top bits b, or
// headImpure. Rank k takes that branch for every x in [k - min(s, 0.5),
// k + 0.5); its pure buckets have their u range inside the hIntegral image
// of that interval shrunk by headMargin at both ends. As u falls with raw,
// the walk goes down from the top bucket (rank 1) while the ranks climb,
// and stops at the first rank narrower than a bucket, as all after it are.
func (s *ScrambledZipf) buildHead() *[1 << headBits]uint64 {
	z := s.z
	head := new([1 << headBits]uint64)
	for b := range head {
		head[b] = headImpure
	}
	low := math.Min(z.s, 0.5) - headMargin
	width := (z.hIntegralN - z.hIntegralX1) / (1 << headBits)
	k, uLo, uHi := uint64(0), math.Inf(-1), math.Inf(-1)
	for b := len(head) - 1; b >= 0; b-- {
		first := uint64(b) << headShift
		uMin, uMax := z.u(first|(1<<headShift-1)), z.u(first)
		for uMax > uHi {
			if k++; k > z.n {
				return head
			}
			kf := float64(k)
			uLo, uHi = z.hIntegral(kf-low), z.hIntegral(kf+0.5-headMargin)
			if !(uHi-uLo >= width) {
				return head
			}
		}
		if uMin >= uLo {
			head[b] = fnvHash64(k-1) % s.n
		}
	}
	return head
}

// fillParMin is the smallest fill whose rounds Fill spreads over every core.
const fillParMin = 1 << 15

// Fill writes into out the ranks that len(out) calls of Next would return
// and leaves the RNG where those calls would leave it. A rejection round
// reads only its own raw RNG output, so Fill takes the raw outputs in order,
// runs a round on each, keeps the accepted ranks in order and draws the
// shortfall the same way.
func (s *ScrambledZipf) Fill(out []uint64) {
	s.count(len(out))
	for len(out) > 0 {
		for i := range out {
			out[i] = s.z.rng.Uint64()
		}
		if len(out) >= fillParMin {
			out = out[s.acceptPar(out):]
		} else {
			out = out[s.accept(out):]
		}
	}
}

// accept overwrites raws with the scrambled ranks their rounds accept,
// packed in order at the front, and returns how many there are.
func (s *ScrambledZipf) accept(raws []uint64) int {
	kept := 0
	for _, raw := range raws {
		if r, ok := s.round(raw); ok {
			raws[kept] = r
			kept++
		}
	}
	return kept
}

// acceptPar is accept over one chunk of raws per core. The closure lives
// here rather than in Fill so that Fill's small fills allocate nothing.
func (s *ScrambledZipf) acceptPar(raws []uint64) int {
	chunks := runtime.GOMAXPROCS(0)
	lo := func(c int) int { return c * len(raws) / chunks }
	kept := make([]int, chunks)
	par.ForEach(chunks, chunks, func(c int) error {
		kept[c] = s.accept(raws[lo(c):lo(c+1)])
		return nil
	})
	n := 0
	for c, k := range kept {
		n += copy(raws[n:], raws[lo(c):lo(c)+k])
	}
	return n
}

func fnvHash64(v uint64) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= 0x100000001B3
		v >>= 8
	}
	return h
}
