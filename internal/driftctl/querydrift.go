package driftctl

import (
	"fmt"

	"repro/internal/sqlmini"
	"repro/internal/stats"
)

// PredicateDrift drifts a range predicate for the sqlmini/card query stack:
// the query-drift axis, orthogonal to data drift. The undrifted workload
// asks Between ranges of width Width whose start is uniform in
// [Lo, Lo+Width); as intensity rises the window's location transports
// toward TargetLo and its width scales by WidthFactor (changing
// selectivity), so at full intensity queries probe a region — and a
// selectivity regime — the system's statistics and learned models have
// never seen.
//
// Like the data Controller, PredicateAt draws exactly one random variate
// per call at every intensity: D=0 emits the undrifted predicate stream
// byte-for-byte, and higher intensities displace the same jittered windows
// rather than resampling them.
type PredicateDrift struct {
	// Column names the predicated column.
	Column string
	// Lo and Width bound the undrifted query window: starts are uniform
	// in [Lo, Lo+Width) and ranges span Width values.
	Lo, Width uint64
	// TargetLo is the window start at full intensity.
	TargetLo uint64
	// WidthFactor scales the window width at full intensity (1 keeps
	// selectivity fixed; >1 widens, <1 narrows).
	WidthFactor float64

	knob Knob
	rng  *stats.RNG
}

// NewPredicateDrift returns a predicate drift over column driven by knob.
func NewPredicateDrift(seed uint64, knob Knob, column string, lo, width, targetLo uint64, widthFactor float64) *PredicateDrift {
	if column == "" || width == 0 {
		panic("driftctl: NewPredicateDrift requires a column and a positive width")
	}
	if widthFactor <= 0 {
		widthFactor = 1
	}
	if knob.Factor < 0 || knob.Factor > 1 {
		panic("driftctl: knob factor outside [0,1]")
	}
	return &PredicateDrift{
		Column: column, Lo: lo, Width: width, TargetLo: targetLo,
		WidthFactor: widthFactor, knob: knob, rng: stats.NewRNG(seed),
	}
}

// Name identifies the drift in reports.
func (q *PredicateDrift) Name() string {
	return fmt.Sprintf("preddrift[%s](%s:%d+%d->%d,x%.1f)",
		q.knob, q.Column, q.Lo, q.Width, q.TargetLo, q.WidthFactor)
}

// PredicateAt returns the range predicate at the given phase progress.
func (q *PredicateDrift) PredicateAt(p float64) sqlmini.Predicate {
	w := q.knob.weightAt(p)
	u := q.rng.Float64()
	lo := float64(q.Lo) + w*(float64(q.TargetLo)-float64(q.Lo))
	width := float64(q.Width) * (1 + w*(q.WidthFactor-1))
	if width < 1 {
		width = 1
	}
	start := lo + u*width
	if start < 0 {
		start = 0
	}
	v := uint64(start)
	return sqlmini.Predicate{Column: q.Column, Op: sqlmini.Between, Value: v, Hi: v + uint64(width)}
}
