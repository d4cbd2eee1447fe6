package core

import (
	"testing"

	"repro/internal/card"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/sqlmini"
)

func sqlTestDB() (*sqlmini.Table, *sqlmini.Table) {
	dim := sqlmini.NewTable("dim", "id", "kind")
	for i := uint64(0); i < 50; i++ {
		dim.Append(i, i%5)
	}
	fact := sqlmini.NewTable("fact", "fid", "dimid", "val")
	for i := uint64(0); i < 3000; i++ {
		fact.Append(i, i%50, i%500)
	}
	return dim, fact
}

func sqlTestQuery(dim, fact *sqlmini.Table, lo uint64) optimizer.Query {
	return optimizer.Query{
		Tables: []*sqlmini.Table{dim, fact},
		Preds: map[string][]sqlmini.Predicate{
			"fact": {{Column: "val", Op: sqlmini.Between, Value: lo, Hi: lo + 20}},
		},
		Joins: []optimizer.JoinEdge{{
			LeftTable: "dim", LeftCol: "id", RightTable: "fact", RightCol: "dimid",
		}},
	}
}

func TestRunSQLStatic(t *testing.T) {
	dim, fact := sqlTestDB()
	h := card.NewHistogram(32)
	h.Analyze(dim)
	h.Analyze(fact)
	sys := &StaticOptimizer{Label: "hist", Est: h, Hint: optimizer.HintDefault}
	res, err := RunSQL(SQLScenario{
		Name:    "basic",
		N:       300,
		Queries: func(i, n int) optimizer.Query { return sqlTestQuery(dim, fact, uint64(i%400)) },
	}, sys, sim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 300 || res.DurationNs <= 0 {
		t.Fatalf("completed=%d duration=%d", res.Completed, res.DurationNs)
	}
	if res.Latency.Count() != 300 || res.Cumulative.Total() != 300 {
		t.Fatal("metrics incomplete")
	}
	if res.SLANs <= 0 {
		t.Fatal("no SLA calibrated")
	}
	var total int64
	for _, iv := range res.Bands.Intervals() {
		total += iv.Completed
	}
	if total != 300 {
		t.Fatalf("bands cover %d ops", total)
	}
	if res.OnlineTrainWork != 0 {
		t.Fatal("static optimizer charged training")
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunSQLSteeredLearns(t *testing.T) {
	dim, fact := sqlTestDB()
	l := card.NewLearned()
	l.ObserveTable(dim)
	l.ObserveTable(fact)
	sys := &SteeredOptimizer{
		Label:         "steered",
		Est:           l,
		Steering:      optimizer.NewSteering(0.5),
		FeedbackEvery: 2,
	}
	res, err := RunSQL(SQLScenario{
		Name:    "steered",
		N:       200,
		Queries: func(i, n int) optimizer.Query { return sqlTestQuery(dim, fact, uint64(i%400)) },
	}, sys, sim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.OnlineTrainWork <= 0 {
		t.Fatal("steered optimizer reported no training work")
	}
	if l.FeedbackCount() == 0 {
		t.Fatal("no cardinality feedback flowed")
	}
}

func TestRunSQLMutation(t *testing.T) {
	dim, fact := sqlTestDB()
	h := card.NewHistogram(32)
	h.Analyze(dim)
	h.Analyze(fact)
	mutated := false
	res, err := RunSQL(SQLScenario{
		Name: "drift",
		N:    400,
		Queries: func(i, n int) optimizer.Query {
			lo := uint64(i % 400)
			if mutated {
				lo += 10000
			}
			return sqlTestQuery(dim, fact, lo)
		},
		MutateAt: 0.5,
		Mutate: func() {
			rows := make([][]uint64, len(fact.Rows))
			for i, r := range fact.Rows {
				rows[i] = []uint64{r[0], r[1], r[2] + 10000}
			}
			fact.ReplaceRows(rows)
			mutated = true
		},
	}, &StaticOptimizer{Label: "hist", Est: h, Hint: optimizer.HintDefault}, sim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseStarts) != 2 || res.PhaseStarts[1] <= 0 || res.PhaseStarts[1] >= res.DurationNs {
		t.Fatalf("change instant %v outside run", res.PhaseStarts)
	}
	if len(res.PostChangeLatencies) != 1 || len(res.PostChangeLatencies[0]) != 200 {
		t.Fatalf("post-change latencies = %d rows", len(res.PostChangeLatencies))
	}
}

func TestRunSQLValidation(t *testing.T) {
	if _, err := RunSQL(SQLScenario{}, &StaticOptimizer{Est: card.Exact{}}, sim.DefaultCostModel()); err == nil {
		t.Fatal("empty scenario accepted")
	}
}

func TestRunSQLErrorPropagates(t *testing.T) {
	bad := optimizer.Query{} // no tables
	_, err := RunSQL(SQLScenario{
		Name:    "bad",
		N:       5,
		Queries: func(i, n int) optimizer.Query { return bad },
	}, &StaticOptimizer{Label: "x", Est: card.Exact{}}, sim.DefaultCostModel())
	if err == nil {
		t.Fatal("query error swallowed")
	}
}
