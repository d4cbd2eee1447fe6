package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Arrival generates inter-arrival gaps (ns) for an open-loop workload. A
// progress argument lets the process itself evolve — rising load, diurnal
// cycles, bursts — during one run, per the paper's §III-A list of
// behaviours classical benchmarks miss.
type Arrival interface {
	// Name identifies the process in reports.
	Name() string
	// NextGap returns the nanoseconds between the previous arrival and
	// the next one at the given phase progress in [0, 1]. A gap of 0 is
	// reserved for closed loop (ClosedLoop): the runner reads it as "arrive
	// when the server frees", so an open-loop process returns at least 1,
	// else a draw that truncates to 0 would drop the queue's backlog.
	NextGap(progress float64) int64
}

// ClosedLoop models a zero-think-time closed loop: the next request
// arrives the moment the previous completes. NextGap returns 0; the runner
// interprets it as "arrival == previous completion".
type ClosedLoop struct{}

// Name implements Arrival.
func (ClosedLoop) Name() string { return "closed-loop" }

// NextGap implements Arrival.
func (ClosedLoop) NextGap(float64) int64 { return 0 }

// Poisson is an open-loop memoryless arrival process at a constant rate.
type Poisson struct {
	RatePerSec float64
	rng        *stats.RNG
}

// NewPoisson returns a Poisson process with the given mean rate.
func NewPoisson(seed uint64, ratePerSec float64) *Poisson {
	if ratePerSec <= 0 {
		panic("workload: Poisson rate must be positive")
	}
	return &Poisson{RatePerSec: ratePerSec, rng: stats.NewRNG(seed)}
}

// Name implements Arrival.
func (p *Poisson) Name() string { return fmt.Sprintf("poisson(%.0f/s)", p.RatePerSec) }

// NextGap implements Arrival.
func (p *Poisson) NextGap(float64) int64 {
	return max(1, int64(p.rng.ExpFloat64()/p.RatePerSec*1e9))
}

// Diurnal modulates a Poisson process sinusoidally: rate(t) = Base *
// (1 + Amplitude*sin(2π*Cycles*progress)). Amplitude in [0,1); Cycles is
// how many day-night cycles fit in the phase.
type Diurnal struct {
	BaseRatePerSec float64
	Amplitude      float64
	Cycles         float64
	rng            *stats.RNG
}

// NewDiurnal returns a diurnal arrival process.
func NewDiurnal(seed uint64, baseRate, amplitude, cycles float64) *Diurnal {
	if baseRate <= 0 || amplitude < 0 || amplitude >= 1 || cycles <= 0 {
		panic("workload: Diurnal parameters out of range")
	}
	return &Diurnal{BaseRatePerSec: baseRate, Amplitude: amplitude, Cycles: cycles,
		rng: stats.NewRNG(seed)}
}

// Name implements Arrival.
func (d *Diurnal) Name() string {
	return fmt.Sprintf("diurnal(%.0f/s,amp=%.2f,cycles=%.1f)", d.BaseRatePerSec, d.Amplitude, d.Cycles)
}

// RateAt returns the instantaneous rate at the given progress.
func (d *Diurnal) RateAt(p float64) float64 {
	return d.BaseRatePerSec * (1 + d.Amplitude*math.Sin(2*math.Pi*d.Cycles*p))
}

// NextGap implements Arrival.
func (d *Diurnal) NextGap(p float64) int64 {
	return max(1, int64(d.rng.ExpFloat64()/d.RateAt(p)*1e9))
}

// Bursty overlays square-wave bursts on a base Poisson process: for
// BurstFraction of each burst period the rate multiplies by BurstFactor.
type Bursty struct {
	BaseRatePerSec float64
	BurstFactor    float64
	BurstFraction  float64
	Periods        float64
	rng            *stats.RNG
}

// NewBursty returns a bursty arrival process.
func NewBursty(seed uint64, baseRate, factor, fraction, periods float64) *Bursty {
	if baseRate <= 0 || factor < 1 || fraction <= 0 || fraction >= 1 || periods <= 0 {
		panic("workload: Bursty parameters out of range")
	}
	return &Bursty{BaseRatePerSec: baseRate, BurstFactor: factor,
		BurstFraction: fraction, Periods: periods, rng: stats.NewRNG(seed)}
}

// Name implements Arrival.
func (b *Bursty) Name() string {
	return fmt.Sprintf("bursty(%.0f/s,x%.0f)", b.BaseRatePerSec, b.BurstFactor)
}

// InBurst reports whether the process is bursting at the given progress.
func (b *Bursty) InBurst(p float64) bool {
	phase := p * b.Periods
	return phase-math.Floor(phase) < b.BurstFraction
}

// NextGap implements Arrival.
func (b *Bursty) NextGap(p float64) int64 {
	rate := b.BaseRatePerSec
	if b.InBurst(p) {
		rate *= b.BurstFactor
	}
	return max(1, int64(b.rng.ExpFloat64()/rate*1e9))
}
