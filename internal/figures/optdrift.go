package figures

import (
	"fmt"
	"io"
	"math"
	"repro/internal/report"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/sqlmini"
	"repro/internal/stats"
)

// OptDriftResult compares query-optimization SUTs on a drifting database:
// a histogram-driven static optimizer (stale after drift) and a learned
// steered optimizer with online cardinality feedback. It exercises every
// §V-D metric on the SQL substrate.
type OptDriftResult struct {
	Results map[string]*core.Result
	// AdjustmentSpeed per system: over-SLA time after the drift.
	AdjustmentSpeed map[string]int64
}

// optDriftDB builds the star database whose fact-table value column
// shifts mid-run, invalidating analyzed statistics.
type optDriftDB struct {
	dim, fact *sqlmini.Table
	rng       *stats.RNG
}

func newOptDriftDB(scale Scale, seed uint64) *optDriftDB {
	db := &optDriftDB{rng: stats.NewRNG(seed)}
	db.dim = sqlmini.NewTable("dim", "id", "kind")
	dimRows := 200
	for i := 0; i < dimRows; i++ {
		db.dim.Append(uint64(i), uint64(i%10))
	}
	db.fact = sqlmini.NewTable("fact", "fid", "dimid", "val")
	factRows := scale.DataSize / 4
	z := stats.NewZipf(db.rng.Split(), 1.1, 1000)
	for i := 0; i < factRows; i++ {
		db.fact.Append(uint64(i), uint64(i%dimRows), z.Next())
	}
	return db
}

// shift moves the fact.val distribution up by 4096 — every analyzed
// histogram and trained model is now wrong about val predicates.
func (db *optDriftDB) shift() {
	rows := make([][]uint64, len(db.fact.Rows))
	for i, r := range db.fact.Rows {
		rows[i] = []uint64{r[0], r[1], r[2] + 4096}
	}
	db.fact.ReplaceRows(rows)
}

// sqlSystems is the one table of query-optimization systems the SQL panels
// (OptDrift, Fig 1g's query panel) compare, by name. Each builder readies
// its estimator on the database it will serve: the static optimizers
// ANALYZE it once, the learned one observes its tables and keeps learning
// from cardinality feedback.
var sqlSystems = map[string]func(db *optDriftDB) core.QuerySystem{
	"static-histogram": func(db *optDriftDB) core.QuerySystem {
		h := card.NewHistogram(64)
		h.Analyze(db.dim)
		h.Analyze(db.fact)
		return &core.StaticOptimizer{Label: "static-histogram", Est: h, Hint: optimizer.HintDefault}
	},
	"static-sample": func(db *optDriftDB) core.QuerySystem {
		s := card.NewSample(0.1)
		s.Analyze(db.dim)
		s.Analyze(db.fact)
		return &core.StaticOptimizer{Label: "static-sample", Est: s, Hint: optimizer.HintDefault}
	},
	"learned-steered": func(db *optDriftDB) core.QuerySystem {
		l := card.NewLearned()
		l.ObserveTable(db.dim)
		l.ObserveTable(db.fact)
		return &core.SteeredOptimizer{
			Label:         "learned-steered",
			Est:           l,
			Steering:      optimizer.NewSteering(0.5),
			FeedbackEvery: 2,
		}
	},
}

// runQueries runs a query scenario on the one executor and fails on the
// first query error. The post-change list is uncapped: the adjustment-speed
// metric sums every latency after the change.
func runQueries(s core.Scenario, sys core.QuerySystem, query func(i int) optimizer.Query) (*core.Result, error) {
	sut := &core.QuerySUT{Sys: sys, Query: query}
	r := core.NewRunner()
	r.PostChangeN = math.MaxInt
	res, err := r.Run(s, sut)
	if err == nil {
		err = sut.Err()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// query returns the i-th workload query: join dim-fact with a selective
// val range whose location tracks the *current* distribution (clients ask
// about data that exists), so after the shift the predicate constants move
// with it — but the static optimizer's statistics do not.
func (db *optDriftDB) query(shifted bool) optimizer.Query {
	base := db.rng.Uint64() % 64
	if shifted {
		base += 4096
	}
	return optimizer.Query{
		Tables: []*sqlmini.Table{db.dim, db.fact},
		Preds: map[string][]sqlmini.Predicate{
			"dim":  {{Column: "kind", Op: sqlmini.Eq, Value: db.rng.Uint64() % 10}},
			"fact": {{Column: "val", Op: sqlmini.Between, Value: base, Hi: base + 32}},
		},
		Joins: []optimizer.JoinEdge{{
			LeftTable: "dim", LeftCol: "id", RightTable: "fact", RightCol: "dimid",
		}},
	}
}

// OptDrift runs the learned-query-optimizer drift experiment.
func OptDrift(scale Scale, seed uint64) (*OptDriftResult, error) {
	n := scale.Ops / 10
	if n < 200 {
		n = 200
	}
	out := &OptDriftResult{
		Results:         make(map[string]*core.Result),
		AdjustmentSpeed: make(map[string]int64),
	}

	for _, name := range []string{"static-histogram", "learned-steered"} {
		db := newOptDriftDB(scale, seed)
		scenario := core.QueryScenario("optdrift", n, n/2)
		scenario.IntervalNs = scale.IntervalNs * 10
		res, err := runQueries(scenario, sqlSystems[name](db), func(i int) optimizer.Query {
			if i == n/2 {
				db.shift() // the data drift: the first query of phase 2 sees it
			}
			return db.query(i >= n/2)
		})
		if err != nil {
			return nil, fmt.Errorf("figures: optdrift %s: %w", name, err)
		}
		out.Results[name] = res
		out.AdjustmentSpeed[name] = res.AdjustmentNs[0]
	}
	return out, nil
}

func renderOptDrift(w io.Writer, res *OptDriftResult, _ csvFunc) {
	labels := make([]string, 0, len(res.Results))
	curves := make([]*metrics.CumCurve, 0, len(res.Results))
	for _, name := range report.SortedKeys(res.Results) {
		r := res.Results[name]
		labels = append(labels, name)
		curves = append(curves, r.Cumulative)
		fmt.Fprintf(w, "%-18s %.0f q/s, train work %d, over-SLA after drift %.3fms\n",
			name, r.Throughput(), r.OnlineTrainWork, float64(res.AdjustmentSpeed[name])/1e6)
	}
	fmt.Fprintln(w)
	report.CumulativePlot(w, "cumulative queries (drift at midpoint)", labels, curves, 100, 14)
	fmt.Fprintln(w)
}
