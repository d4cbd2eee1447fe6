package core

import (
	"fmt"

	"repro/internal/card"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/sqlmini"
)

// QuerySystem is a system under test that answers SPJ queries — the SQL
// counterpart of the KV SUT interface, used by the learned-query-optimizer
// experiments. Cost is reported in engine work units (rows touched).
type QuerySystem interface {
	// Name identifies the optimizer configuration in reports.
	Name() string
	// Execute plans and runs one query, returning the rows-touched cost.
	Execute(q optimizer.Query) (int, error)
	// TrainWork reports cumulative learning work (0 for static systems).
	TrainWork() int64
}

// StaticOptimizer plans every query with a fixed estimator and hint — the
// traditional system: fast, predictable, and oblivious to drift unless an
// external ANALYZE refreshes its statistics.
type StaticOptimizer struct {
	Label string
	Est   card.JoinEstimator
	Hint  optimizer.Hint
}

// Name implements QuerySystem.
func (s *StaticOptimizer) Name() string { return s.Label }

// TrainWork implements QuerySystem.
func (s *StaticOptimizer) TrainWork() int64 { return 0 }

// Execute implements QuerySystem.
func (s *StaticOptimizer) Execute(q optimizer.Query) (int, error) {
	plan, _, err := optimizer.Optimize(q, s.Est, s.Hint)
	if err != nil {
		return 0, err
	}
	return sqlmini.Cost(plan)
}

// SteeredOptimizer wraps an estimator with Bao-style bandit steering and
// (optionally) learned-cardinality feedback: after each query it observes
// the true cost, and when the estimator is a *card.Learned it also feeds
// back true single-table cardinalities — learning online from execution
// exactly as §IV describes.
type SteeredOptimizer struct {
	Label    string
	Est      card.JoinEstimator
	Steering *optimizer.Steering
	// FeedbackEvery controls how often (every Nth query) single-table
	// true cardinalities are labeled and fed back; labeling costs one
	// table scan each, which is charged to the query. 0 disables.
	FeedbackEvery int
	queries       int
}

// Name implements QuerySystem.
func (s *SteeredOptimizer) Name() string { return s.Label }

// TrainWork implements QuerySystem.
func (s *SteeredOptimizer) TrainWork() int64 {
	w := int64(s.Steering.TrainWork())
	if l, ok := s.Est.(*card.Learned); ok {
		w += int64(l.TrainWork())
	}
	return w
}

// Execute implements QuerySystem.
func (s *SteeredOptimizer) Execute(q optimizer.Query) (int, error) {
	plan, hint, tmpl, err := optimizer.OptimizeSteered(q, s.Est, s.Steering)
	if err != nil {
		return 0, err
	}
	c, err := sqlmini.Cost(plan)
	if err != nil {
		return 0, err
	}
	s.Steering.Observe(tmpl, hint, float64(c))
	s.queries++
	if l, ok := s.Est.(*card.Learned); ok && s.FeedbackEvery > 0 && s.queries%s.FeedbackEvery == 0 {
		// Label collection: one scan per filtered table (charged).
		for _, t := range q.Tables {
			preds := q.Preds[t.Name]
			if len(preds) == 0 {
				continue
			}
			for _, p := range preds {
				l.Feedback(t, p, sqlmini.TrueCardinality(t, []sqlmini.Predicate{p}))
			}
			c += t.Len() // the scan that produced the labels
		}
	}
	return c, nil
}

// SQLScenario drives a query stream against a QuerySystem with an optional
// mid-run database mutation (data drift).
type SQLScenario struct {
	Name string
	// Queries yields the i-th query of n total.
	Queries func(i, n int) optimizer.Query
	// N is the number of queries to run.
	N int
	// MutateAt, when in (0,1), applies Mutate after that fraction of
	// queries — the abrupt data-distribution change.
	MutateAt float64
	Mutate   func()
	// IntervalNs is the band/timeline interval (default 1ms).
	IntervalNs int64
	// SLANs fixes the SLA; 0 calibrates from the first quarter of the run.
	SLANs int64
}

// RunSQL executes the scenario on the virtual clock: each query's service
// time is its rows-touched cost priced by the cost model. The Result's
// OnlineTrainWork is the system's learning work; a mid-run mutation is its
// second PhaseStarts entry, and the latencies after it are its one
// PostChangeLatencies row.
func RunSQL(s SQLScenario, sys QuerySystem, cm sim.CostModel) (*Result, error) {
	if s.N <= 0 || s.Queries == nil {
		return nil, fmt.Errorf("core: SQL scenario %q incomplete", s.Name)
	}
	interval := s.IntervalNs
	if interval <= 0 {
		interval = 1_000_000
	}
	clock := &sim.Virtual{}
	res := &Result{Scenario: s.Name, SUT: sys.Name(), PhaseStarts: []int64{0}}
	mutateAfter := -1
	if s.MutateAt > 0 && s.MutateAt < 1 && s.Mutate != nil {
		mutateAfter = int(s.MutateAt * float64(s.N))
	}
	// SLA: fixed by the scenario, else calibrated from the first quarter
	// of the run (SQL streams are short relative to KV runs, so the
	// window scales with N instead of the KV default of 1000).
	calibrateAfter := s.N / 4
	if calibrateAfter < 1 {
		calibrateAfter = 1
	}
	col := metrics.NewCollector(metrics.CollectorConfig{
		IntervalNs:     interval,
		SLANs:          s.SLANs,
		CalibrateAfter: calibrateAfter,
		Ops:            s.N,
	})
	for i := 0; i < s.N; i++ {
		if i == mutateAfter {
			s.Mutate()
			res.PhaseStarts = append(res.PhaseStarts, clock.Now())
			res.PostChangeLatencies = make([][]int64, 1)
		}
		work, err := sys.Execute(s.Queries(i, s.N))
		if err != nil {
			return nil, fmt.Errorf("core: SQL scenario %q query %d: %w", s.Name, i, err)
		}
		service := cm.ServiceTime(int64(work))
		clock.Advance(service)
		col.Record(clock.Now(), service)
		if res.PostChangeLatencies != nil {
			res.PostChangeLatencies[0] = append(res.PostChangeLatencies[0], service)
		}
	}
	res.Snapshot = col.Snapshot()
	res.DurationNs = clock.Now()
	res.OnlineTrainWork = sys.TrainWork()
	return res, nil
}
