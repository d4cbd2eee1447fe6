package figures

import (
	"fmt"
	"io"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/report"
	"repro/internal/similarity"
	"repro/internal/sqlmini"
	"repro/internal/stats"
)

// Fig1aWorkloadResult is the workload-similarity variant of Figure 1a: the
// X-axis Φ is the paper's Jaccard distance over the sets of all query-plan
// subtrees (§V-D1), and each box is the per-interval query throughput of
// the same SUT on one workload family.
type Fig1aWorkloadResult struct {
	// Rows per SUT name, Φ-ordered by report.BoxPlot.
	Rows map[string][]report.BoxRow
	// Phi per workload name (1 - Jaccard similarity to the baseline).
	Phi map[string]float64
}

// workloadFamily generates queries of one template family over a shared
// database.
type workloadFamily struct {
	name  string
	query func(rng *stats.RNG, db *wlDB) optimizer.Query
}

// wlDB is the shared database of the workload-similarity experiment.
type wlDB struct {
	users, orders, items *sqlmini.Table
}

func newWLDB(scale Scale, seed uint64) *wlDB {
	rng := stats.NewRNG(seed)
	db := &wlDB{}
	db.users = sqlmini.NewTable("users", "id", "age", "region")
	nUsers := scale.DataSize / 40
	for i := 0; i < nUsers; i++ {
		db.users.Append(uint64(i), 18+rng.Uint64()%60, rng.Uint64()%20)
	}
	db.orders = sqlmini.NewTable("orders", "oid", "uid", "amount")
	for i := 0; i < nUsers*5; i++ {
		db.orders.Append(uint64(i), rng.Uint64()%uint64(nUsers), rng.Uint64()%10000)
	}
	db.items = sqlmini.NewTable("items", "iid", "oid2", "sku")
	for i := 0; i < nUsers*8; i++ {
		db.items.Append(uint64(i), rng.Uint64()%uint64(nUsers*5), rng.Uint64()%500)
	}
	return db
}

// fig1aWorkloadFamilies returns the families, from the baseline outward:
// same template with different literals (Φ=0), narrowed variant (shares
// most subtrees), different join shape, and a disjoint template.
func fig1aWorkloadFamilies() []workloadFamily {
	return []workloadFamily{
		{name: "baseline-join", query: func(rng *stats.RNG, db *wlDB) optimizer.Query {
			return optimizer.Query{
				Tables: []*sqlmini.Table{db.users, db.orders},
				Preds: map[string][]sqlmini.Predicate{
					"users": {{Column: "age", Op: sqlmini.Ge, Value: 18 + rng.Uint64()%50}},
				},
				Joins: []optimizer.JoinEdge{{LeftTable: "users", LeftCol: "id", RightTable: "orders", RightCol: "uid"}},
			}
		}},
		{name: "same-template", query: func(rng *stats.RNG, db *wlDB) optimizer.Query {
			// Identical shape, different literals: Φ must be ~0.
			return optimizer.Query{
				Tables: []*sqlmini.Table{db.users, db.orders},
				Preds: map[string][]sqlmini.Predicate{
					"users": {{Column: "age", Op: sqlmini.Ge, Value: 30 + rng.Uint64()%30}},
				},
				Joins: []optimizer.JoinEdge{{LeftTable: "users", LeftCol: "id", RightTable: "orders", RightCol: "uid"}},
			}
		}},
		{name: "extra-filter", query: func(rng *stats.RNG, db *wlDB) optimizer.Query {
			// Adds an orders filter: shares the scan/users subtree.
			return optimizer.Query{
				Tables: []*sqlmini.Table{db.users, db.orders},
				Preds: map[string][]sqlmini.Predicate{
					"users":  {{Column: "age", Op: sqlmini.Ge, Value: 18 + rng.Uint64()%50}},
					"orders": {{Column: "amount", Op: sqlmini.Lt, Value: rng.Uint64() % 10000}},
				},
				Joins: []optimizer.JoinEdge{{LeftTable: "users", LeftCol: "id", RightTable: "orders", RightCol: "uid"}},
			}
		}},
		{name: "three-way", query: func(rng *stats.RNG, db *wlDB) optimizer.Query {
			return optimizer.Query{
				Tables: []*sqlmini.Table{db.users, db.orders, db.items},
				Preds: map[string][]sqlmini.Predicate{
					"users": {{Column: "region", Op: sqlmini.Eq, Value: rng.Uint64() % 20}},
				},
				Joins: []optimizer.JoinEdge{
					{LeftTable: "users", LeftCol: "id", RightTable: "orders", RightCol: "uid"},
					{LeftTable: "orders", LeftCol: "oid", RightTable: "items", RightCol: "oid2"},
				},
			}
		}},
		{name: "disjoint-scan", query: func(rng *stats.RNG, db *wlDB) optimizer.Query {
			// Single-table template sharing no subtree with the baseline.
			return optimizer.Query{
				Tables: []*sqlmini.Table{db.items},
				Preds: map[string][]sqlmini.Predicate{
					"items": {{Column: "sku", Op: sqlmini.Between, Value: rng.Uint64() % 400, Hi: rng.Uint64()%400 + 100}},
				},
			}
		}},
	}
}

// Fig1aWorkload runs each workload family through the histogram-driven
// optimizer and reports Φ-positioned throughput boxes. Φ uses the actual
// optimized plans' subtree sets, exactly as §V-D1 prescribes.
func Fig1aWorkload(scale Scale, seed uint64) (*Fig1aWorkloadResult, error) {
	db := newWLDB(scale, seed)
	families := fig1aWorkloadFamilies()
	n := scale.Ops / 20
	if n < 100 {
		n = 100
	}

	est := card.NewHistogram(64)
	est.Analyze(db.users)
	est.Analyze(db.orders)
	est.Analyze(db.items)

	// Φ: plan-subtree Jaccard distance from the baseline family, using a
	// sample of optimized plans per family.
	planSample := func(f workloadFamily, s uint64) []*similarity.Tree {
		rng := stats.NewRNG(s)
		var trees []*similarity.Tree
		for i := 0; i < 16; i++ {
			plan, _, err := optimizer.Optimize(f.query(rng, db), est, optimizer.HintDefault)
			if err != nil {
				continue
			}
			trees = append(trees, plan.Tree())
		}
		return trees
	}
	base := planSample(families[0], seed+100)
	phi := make(map[string]float64, len(families))
	for _, f := range families {
		phi[f.name] = similarity.WorkloadDistance(base, planSample(f, seed+200))
	}

	out := &Fig1aWorkloadResult{Rows: make(map[string][]report.BoxRow), Phi: phi}
	for _, f := range families {
		rng := stats.NewRNG(seed + 300)
		scenario := core.QueryScenario("fig1a-workload-"+f.name, n)
		scenario.IntervalNs = scale.IntervalNs * 20
		sys := &core.StaticOptimizer{Label: "histogram-optimizer", Est: est, Hint: optimizer.HintDefault}
		res, err := runQueries(scenario, sys, func(int) optimizer.Query { return f.query(rng, db) })
		if err != nil {
			return nil, fmt.Errorf("figures: fig1a-workload %s: %w", f.name, err)
		}
		out.Rows[sys.Name()] = append(out.Rows[sys.Name()], report.BoxRow{
			Label:   f.name,
			Phi:     phi[f.name],
			Summary: res.Bands.ThroughputSummary(),
		})
	}
	return out, nil
}

func renderFig1aWorkload(w io.Writer, res *Fig1aWorkloadResult, csv csvFunc) {
	for _, sut := range report.SortedKeys(res.Rows) {
		report.BoxPlot(w,
			fmt.Sprintf("%s: per-interval query throughput by workload family", sut),
			res.Rows[sut], 64)
		fmt.Fprintln(w)
		csv("fig1a-workload-"+sut+".csv", func(w io.Writer) { report.BoxCSV(w, res.Rows[sut]) })
	}
}
