// Package sim provides the deterministic discrete-event clock and service
// cost model the benchmark's figure experiments run on. Virtual time makes
// every experiment reproducible and machine-independent: an operation's
// latency is derived from the *work* the system under test actually
// performed (comparisons, rows probed, model retrains), using constants
// calibrated against the real micro-benchmarks in bench_test.go.
//
// This is the simulator substitution documented in DESIGN.md: the paper's
// benchmark would measure wall time on dedicated hardware; we measure work
// deterministically and convert it to time.
package sim

import "time"

// Clock abstracts time for the benchmark runner. Implementations must be
// monotone.
type Clock interface {
	// Now returns nanoseconds since the clock's epoch.
	Now() int64
	// Advance moves the clock forward by d nanoseconds (no-op on real
	// clocks, which advance themselves).
	Advance(d int64)
}

// Virtual is a discrete-event clock starting at zero. The zero value is
// ready to use.
type Virtual struct {
	now int64
}

// Now implements Clock.
func (v *Virtual) Now() int64 { return v.now }

// Advance implements Clock.
func (v *Virtual) Advance(d int64) {
	if d < 0 {
		panic("sim: negative clock advance")
	}
	v.now += d
}

// AdvanceTo moves the clock to t if t is in the future.
func (v *Virtual) AdvanceTo(t int64) {
	if t > v.now {
		v.now = t
	}
}

// Real reads the wall clock (monotonic) relative to its creation time.
type Real struct {
	epoch time.Time
}

// NewReal returns a wall clock with epoch now.
func NewReal() *Real { return &Real{epoch: time.Now()} }

// Now implements Clock.
func (r *Real) Now() int64 { return time.Since(r.epoch).Nanoseconds() }

// Advance implements Clock (no-op: real time advances itself).
func (r *Real) Advance(int64) {}

// CostModel converts SUT work units into virtual service time. The
// constants are nanoseconds, chosen to keep virtual results in a realistic
// shape; nothing fits or asserts them against hardware yet. The current
// reading of how far they are off is sim.virtual_over_wall.* in
// `go run ./benchmark -trace 1`.
type CostModel struct {
	// BaseNs is the fixed per-operation overhead (dispatch, memory walk).
	BaseNs int64
	// PerWorkNs prices one work unit (one comparison / probed row).
	PerWorkNs int64
	// PerTrainNs prices one training work unit (model fit element).
	PerTrainNs int64
}

// DefaultCostModel returns constants calibrated for an in-memory store on
// commodity hardware: ~100ns fixed cost, ~8ns per comparison/probe, ~20ns
// per training element.
func DefaultCostModel() CostModel {
	return CostModel{BaseNs: 100, PerWorkNs: 8, PerTrainNs: 20}
}

// ServiceTime returns the virtual duration of an operation that performed
// the given work units.
func (c CostModel) ServiceTime(work int64) int64 {
	if work < 0 {
		work = 0
	}
	return c.BaseNs + c.PerWorkNs*work
}

// TrainTime returns the virtual duration of a training step of the given
// work units.
func (c CostModel) TrainTime(work int64) int64 {
	if work < 0 {
		work = 0
	}
	return c.PerTrainNs * work
}
