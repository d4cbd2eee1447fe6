package figures

import (
	"repro/internal/core"
	"repro/internal/cost"
)

// newRunner returns the core runner configured with the scale's
// parallelism bound, so every RunAll in this package runs under the same
// -parallel setting as the panel orchestration in cmd/figures.
func newRunner(scale Scale) *core.Runner {
	r := core.NewRunner()
	r.Parallel = scale.Parallel
	return r
}

// modelWithDBARate returns the default cost model with the DBA hourly rate
// overridden — the Lesson 4 sweep variable.
func modelWithDBARate(rate float64) cost.Model {
	m := cost.DefaultModel()
	m.DBADollarsPerH = rate
	return m
}
