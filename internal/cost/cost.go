// Package cost implements the total-cost-of-ownership model the paper's
// Lesson 4 demands ("we cannot ignore the human cost anymore") and the
// Figure 1d metrics: cost split into training and execution, hardware
// tiers for training (CPU vs. GPU pricing and speed), the manual-DBA cost
// step function, and the headline single-value metric — the training cost
// at which a learned system outperforms a manually tuned traditional one.
package cost

import (
	"errors"
	"fmt"
	"sort"
)

// HardwareTier describes a machine class available for training or
// execution. Speedup expresses how much faster training work completes
// relative to the baseline CPU tier; the benchmark's simulated "GPU" is a
// tier with higher speedup and higher hourly cost, which preserves the
// trade-off Figure 1d explores without requiring the hardware.
type HardwareTier struct {
	Name        string
	DollarsPerH float64
	Speedup     float64
}

// Standard tiers. Prices are representative cloud on-demand rates; the
// benchmark only depends on their ratios.
var (
	CPU = HardwareTier{Name: "cpu", DollarsPerH: 0.80, Speedup: 1}
	GPU = HardwareTier{Name: "gpu", DollarsPerH: 3.20, Speedup: 12}
)

// Model is the cost model for a benchmark run. All durations are hours.
type Model struct {
	// DBADollarsPerH prices human administration work (Lesson 4).
	DBADollarsPerH float64
	// ExecutionTier prices the machine running the workload.
	ExecutionTier HardwareTier
	// AmortizationYears spreads one-time costs over the ownership
	// horizon for TCO (typically 3 years, per the paper).
	AmortizationYears float64
}

// DefaultModel returns the model used by the shipped experiments:
// a $120/h administrator, CPU execution, 3-year horizon.
func DefaultModel() Model {
	return Model{
		DBADollarsPerH:    120,
		ExecutionTier:     CPU,
		AmortizationYears: 3,
	}
}

// TrainingCost converts abstract training work units into dollars on a
// tier. workUnits is whatever the SUT reports (model fits, evaluations);
// unitHoursOnCPU calibrates one unit's duration on the CPU tier.
func (m Model) TrainingCost(workUnits float64, unitHoursOnCPU float64, tier HardwareTier) float64 {
	if workUnits <= 0 || unitHoursOnCPU <= 0 {
		return 0
	}
	hours := workUnits * unitHoursOnCPU / tier.Speedup
	return hours * tier.DollarsPerH
}

// ExecutionCost prices running the workload for the given hours.
func (m Model) ExecutionCost(hours float64) float64 {
	if hours <= 0 {
		return 0
	}
	return hours * m.ExecutionTier.DollarsPerH
}

// DBACost prices human tuning hours.
func (m Model) DBACost(hours float64) float64 {
	if hours <= 0 {
		return 0
	}
	return hours * m.DBADollarsPerH
}

// TCO is the paper's three-year-style total: execution (machine) cost over
// the horizon plus one-time optimization cost (training dollars for a
// learned system, DBA dollars for a traditional one).
func (m Model) TCO(executionHoursPerYear float64, oneTimeOptimization float64) float64 {
	return m.ExecutionCost(executionHoursPerYear*m.AmortizationYears) + oneTimeOptimization
}

// CurvePoint is one point of a throughput-versus-cost curve (learned
// system across training budgets, or DBA step function).
type CurvePoint struct {
	Dollars    float64
	Throughput float64
	Label      string
}

// Curve is a throughput-vs-cost curve sorted by Dollars ascending.
type Curve []CurvePoint

// Sort orders the curve by cost (stable on equal cost).
func (c Curve) Sort() {
	sort.SliceStable(c, func(i, j int) bool { return c[i].Dollars < c[j].Dollars })
}

// At returns the best throughput achievable at cost <= dollars (step
// semantics: spending more never hurts because earlier configurations
// remain available). Returns 0 if nothing is affordable.
func (c Curve) At(dollars float64) float64 {
	best := 0.0
	for _, p := range c {
		if p.Dollars <= dollars && p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

// ErrNeverOutperforms is returned by TrainingCostToOutperform when the
// learned curve never beats the traditional curve at any measured budget.
var ErrNeverOutperforms = errors.New("cost: learned system never outperforms the traditional baseline")

// TrainingCostToOutperform is the paper's new Figure 1d metric: the
// smallest training cost at which the learned system's throughput exceeds
// the traditional system's *best* throughput at any manual-tuning cost
// (the strongest form: beat the fully tuned baseline). It returns the
// dollars and the learned-curve point that achieves it.
func TrainingCostToOutperform(learned, traditional Curve) (float64, CurvePoint, error) {
	target := 0.0
	for _, p := range traditional {
		if p.Throughput > target {
			target = p.Throughput
		}
	}
	l := append(Curve(nil), learned...)
	l.Sort()
	for _, p := range l {
		if p.Throughput > target {
			return p.Dollars, p, nil
		}
	}
	return 0, CurvePoint{}, ErrNeverOutperforms
}

// CrossoverBudget is the softer variant: the smallest learned-system cost
// at which it beats the traditional system *at equal spend* (dollars for
// dollars). Returns ErrNeverOutperforms if no measured point qualifies.
func CrossoverBudget(learned, traditional Curve) (float64, error) {
	l := append(Curve(nil), learned...)
	l.Sort()
	for _, p := range l {
		if p.Throughput > traditional.At(p.Dollars) {
			return p.Dollars, nil
		}
	}
	return 0, ErrNeverOutperforms
}

// String renders a point for reports.
func (p CurvePoint) String() string {
	return fmt.Sprintf("$%.2f -> %.1f ops/s (%s)", p.Dollars, p.Throughput, p.Label)
}
