package core

import (
	"fmt"

	"repro/internal/card"
	"repro/internal/optimizer"
	"repro/internal/sqlmini"
	"repro/internal/workload"
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

// QuerySUT runs a query stream on the one executor: it adapts a QuerySystem
// to SUT, executing Query(i) for an op whose key is i (QueryScenario issues
// them) and reporting the rows it touched as the op's work, so the runner
// prices a query by the same Cost.ServiceTime as any KV op. The first Execute
// error fails that op and every later one, and Err returns it.
type QuerySUT struct {
	Sys   QuerySystem
	Query func(i int) optimizer.Query
	err   error
}

// Name implements SUT.
func (q *QuerySUT) Name() string { return q.Sys.Name() }

// Load implements SUT: a query system brings its own database.
func (q *QuerySUT) Load(_, _ []uint64) {}

// Do implements SUT.
func (q *QuerySUT) Do(op workload.Op) OpResult {
	if q.err != nil {
		return OpResult{Failed: true}
	}
	rows, err := q.Sys.Execute(q.Query(int(op.Key)))
	if err != nil {
		q.err = fmt.Errorf("core: query %d: %w", op.Key, err)
		return OpResult{Failed: true}
	}
	return OpResult{Found: true, Work: int64(rows)}
}

// OnlineTrainWork implements OnlineLearner: the system's learning work.
func (q *QuerySUT) OnlineTrainWork() int64 { return q.Sys.TrainWork() }

// Err returns the first query error, nil when every query ran.
func (q *QuerySUT) Err() error { return q.err }

// QueryScenario issues queries 0..n-1 to a QuerySUT, closed loop, as phases
// split at the given query indexes (none: one phase), so a data mutation made
// on the first query of a phase is that phase's change instant. It has no
// initial data, and its SLA is calibrated from the first n/4 queries: query
// streams are short beside KV runs.
func QueryScenario(name string, n int, splits ...int) Scenario {
	s := Scenario{Name: name, InitialKeys: []uint64{}, CalibrateAfter: max(n/4, 1)}
	bounds := append(append([]int{0}, splits...), n)
	for p := 1; p < len(bounds); p++ {
		from, to := bounds[p-1], bounds[p]
		label := fmt.Sprintf("queries %d-%d", from, to-1)
		ops := make([]workload.Op, to-from)
		for j := range ops {
			ops[j].Key = uint64(from + j)
		}
		s.Phases = append(s.Phases, Phase{Name: label, Ops: to - from, Source: workload.NewTraceReader(label, ops, nil)})
	}
	return s
}
