package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/card"
	"repro/internal/metrics"
	"repro/internal/optimizer"
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

// runQueries runs a query scenario through the one executor with an uncapped
// post-change list, failing on the first query error.
func runQueries(t *testing.T, s Scenario, sys QuerySystem, query func(i int) optimizer.Query) *Result {
	t.Helper()
	sut := &QuerySUT{Sys: sys, Query: query}
	r := NewRunner()
	r.PostChangeN = math.MaxInt
	res, err := r.Run(s, sut)
	if err == nil {
		err = sut.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func histOptimizer(dim, fact *sqlmini.Table) *StaticOptimizer {
	h := card.NewHistogram(32)
	h.Analyze(dim)
	h.Analyze(fact)
	return &StaticOptimizer{Label: "hist", Est: h, Hint: optimizer.HintDefault}
}

func TestQuerySUTStatic(t *testing.T) {
	dim, fact := sqlTestDB()
	res := runQueries(t, QueryScenario("basic", 300), histOptimizer(dim, fact), func(i int) optimizer.Query {
		return sqlTestQuery(dim, fact, uint64(i%400))
	})
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
		total += iv.Completed()
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

func TestQuerySUTSteeredLearns(t *testing.T) {
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
	res := runQueries(t, QueryScenario("steered", 200), sys, func(i int) optimizer.Query {
		return sqlTestQuery(dim, fact, uint64(i%400))
	})
	if res.OnlineTrainWork <= 0 {
		t.Fatal("steered optimizer reported no training work")
	}
	if l.FeedbackCount() == 0 {
		t.Fatal("no cardinality feedback flowed")
	}
}

// shiftingQueries returns the test query stream over dim/fact whose fact.val
// column shifts up by 10000 on query mutateAt, the predicates following it.
func shiftingQueries(dim, fact *sqlmini.Table, mutateAt int) func(i int) optimizer.Query {
	return func(i int) optimizer.Query {
		lo := uint64(i % 400)
		if i >= mutateAt {
			if i == mutateAt {
				rows := make([][]uint64, len(fact.Rows))
				for j, r := range fact.Rows {
					rows[j] = []uint64{r[0], r[1], r[2] + 10000}
				}
				fact.ReplaceRows(rows)
			}
			lo += 10000
		}
		return sqlTestQuery(dim, fact, lo)
	}
}

func TestQuerySUTMutation(t *testing.T) {
	dim, fact := sqlTestDB()
	res := runQueries(t, QueryScenario("drift", 400, 200), histOptimizer(dim, fact), shiftingQueries(dim, fact, 200))
	if len(res.PhaseStarts) != 2 || res.PhaseStarts[1] <= 0 || res.PhaseStarts[1] >= res.DurationNs {
		t.Fatalf("change instant %v outside run", res.PhaseStarts)
	}
	if len(res.AdjustmentNs) != 1 {
		t.Fatalf("adjustment speeds = %v, want one for the one change", res.AdjustmentNs)
	}
}

// TestQuerySUTKnownAnswer replays a query stream against a fresh copy of the
// system directly and checks the run against it: every completion lands at
// the prefix sum of the queries' service times (closed loop), the SLA is
// calibrated from the first n/4 latencies, and the adjustment speed sums
// all n/2 queries after the mutation. n/4 and n/2 both exceed the
// collector's default window of 1000 and the runner's default post-change
// cap of 1000, and queries from 520 on read twice the rows, so the
// median of the first 1000 latencies is a narrow query's and that of the
// first n/4 a wide one's: neither default would pass. After the mutation
// the predicate widens by one value every ten queries, so the queries there
// price differently and a window shifted by one query sums to another value.
func TestQuerySUTKnownAnswer(t *testing.T) {
	const n = 4400
	cm := NewRunner().Cost
	widened := func(dim, fact *sqlmini.Table) func(i int) optimizer.Query {
		queries := shiftingQueries(dim, fact, n/2)
		return func(i int) optimizer.Query {
			q := queries(i)
			if p := &q.Preds["fact"][0]; i >= n/2 {
				p.Hi = p.Value + 40 + uint64(i-n/2)/10
			} else if i >= 520 {
				p.Hi = p.Value + 40
			}
			return q
		}
	}

	dim, fact := sqlTestDB()
	sys, queries := histOptimizer(dim, fact), widened(dim, fact)
	service := make([]int64, n)
	for i := range service {
		rows, err := sys.Execute(queries(i))
		if err != nil {
			t.Fatal(err)
		}
		service[i] = cm.ServiceTime(int64(rows))
	}

	dim, fact = sqlTestDB()
	res := runQueries(t, QueryScenario("known", n, n/2), histOptimizer(dim, fact), widened(dim, fact))
	var at int64
	j := 0
	res.Cumulative.Points(func(done, count int64) {
		at += service[j]
		if done != at || count != int64(j)+1 {
			t.Fatalf("query %d: point (%d, %d), want (%d, %d)", j, done, count, at, j+1)
		}
		j++
	})
	if j != n {
		t.Fatalf("%d completions, want %d", j, n)
	}
	h := metrics.NewHistogram()
	for _, s := range service[:n/4] {
		h.Record(s)
	}
	if want := metrics.CalibrateSLA(h, 0.5, 20); res.SLANs != want {
		t.Fatalf("SLA %d ns, want %d from the first n/4 latencies", res.SLANs, want)
	}
	var adj int64
	for _, s := range service[n/2:] {
		adj += max(s-res.SLANs, 0)
	}
	if len(res.AdjustmentNs) != 1 || res.AdjustmentNs[0] != adj {
		t.Fatalf("adjustment speed %v, want [%d] at the calibrated SLA of %d ns", res.AdjustmentNs, adj, res.SLANs)
	}

	// At an SLA fixed at half the fastest query after the mutation, every
	// one of them is over it, and the sum must cover all n/2.
	fixed := QueryScenario("known", n, n/2)
	fixed.SLANs = slices.Min(service[n/2:]) / 2
	var first1000, shifted int64
	adj = 0
	for j, s := range service[n/2:] {
		adj += max(s-fixed.SLANs, 0)
		if j == 999 {
			first1000 = adj
		}
		if j >= 1 && j <= 1000 {
			shifted += max(s-fixed.SLANs, 0)
		}
	}
	if adj == first1000 {
		t.Fatalf("no query after the first 1000 since the mutation is over %d ns: not a test of the window", fixed.SLANs)
	}
	if shifted == first1000 {
		t.Fatalf("the 1000 queries from the mutation on and the 1000 from one later both sum to %d ns: not a test of which queries a window holds", shifted)
	}
	dim, fact = sqlTestDB()
	res = runQueries(t, fixed, histOptimizer(dim, fact), widened(dim, fact))
	if len(res.AdjustmentNs) != 1 || res.AdjustmentNs[0] != adj {
		t.Fatalf("adjustment speed %v, want [%d] over the %d queries after the mutation", res.AdjustmentNs, adj, n/2)
	}
}

func TestQuerySUTValidation(t *testing.T) {
	for _, s := range []Scenario{{}, QueryScenario("empty", 0)} {
		if _, err := NewRunner().Run(s, &QuerySUT{Sys: &StaticOptimizer{Est: card.Exact{}}}); err == nil {
			t.Fatalf("empty scenario %+v accepted", s)
		}
	}
}

func TestQuerySUTErrorPropagates(t *testing.T) {
	bad := optimizer.Query{} // no tables
	sut := &QuerySUT{Sys: &StaticOptimizer{Label: "x", Est: card.Exact{}}, Query: func(int) optimizer.Query { return bad }}
	if _, err := NewRunner().Run(QueryScenario("bad", 5), sut); err != nil {
		t.Fatal(err)
	}
	if sut.Err() == nil {
		t.Fatal("query error swallowed")
	}
}
