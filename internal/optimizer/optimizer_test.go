package optimizer

import (
	"strings"
	"testing"

	"repro/internal/card"
	"repro/internal/sqlmini"
	"repro/internal/stats"
)

// star builds a star-schema database: a small dimension table, a large
// fact table, and a medium table joining the fact.
func star() (dim, fact, detail *sqlmini.Table) {
	dim = sqlmini.NewTable("dim", "id", "kind")
	for i := uint64(0); i < 50; i++ {
		dim.Append(i, i%5)
	}
	fact = sqlmini.NewTable("fact", "fid", "dimid", "val")
	for i := uint64(0); i < 5000; i++ {
		fact.Append(i, i%50, i%997)
	}
	detail = sqlmini.NewTable("detail", "fid2", "note")
	for i := uint64(0); i < 2000; i++ {
		detail.Append(i, i%13)
	}
	return
}

func starQuery(dim, fact, detail *sqlmini.Table) Query {
	return Query{
		Tables: []*sqlmini.Table{dim, fact, detail},
		Preds: map[string][]sqlmini.Predicate{
			"dim": {{Column: "kind", Op: sqlmini.Eq, Value: 3}},
		},
		Joins: []JoinEdge{
			{LeftTable: "dim", LeftCol: "id", RightTable: "fact", RightCol: "dimid"},
			{LeftTable: "fact", LeftCol: "fid", RightTable: "detail", RightCol: "fid2"},
		},
	}
}

func TestOptimizeProducesValidPlan(t *testing.T) {
	dim, fact, detail := star()
	q := starQuery(dim, fact, detail)
	plan, est, err := Optimize(q, card.Exact{}, HintDefault)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("estimated cost = %v", est)
	}
	rows, _, err := sqlmini.Execute(plan)
	if err != nil {
		t.Fatalf("optimized plan does not execute: %v", err)
	}
	// Ground truth via a fixed plan.
	ref := sqlmini.NewJoin(sqlmini.HashJoin,
		sqlmini.NewJoin(sqlmini.HashJoin,
			sqlmini.NewScan(dim, q.Preds["dim"]...),
			sqlmini.NewScan(fact), "dim.id", "fact.dimid"),
		sqlmini.NewScan(detail), "fact.fid", "detail.fid2")
	refRows, _, err := sqlmini.Execute(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(refRows) {
		t.Fatalf("optimized plan returns %d rows, reference %d", len(rows), len(refRows))
	}
}

func TestOptimizeWithExactBeatsWorstOrder(t *testing.T) {
	dim, fact, detail := star()
	q := starQuery(dim, fact, detail)
	plan, _, err := Optimize(q, card.Exact{}, HintDefault)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sqlmini.Cost(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately bad: nested-loop everything, fact joined last.
	bad := sqlmini.NewJoin(sqlmini.NestedLoopJoin,
		sqlmini.NewJoin(sqlmini.NestedLoopJoin,
			sqlmini.NewScan(fact),
			sqlmini.NewScan(detail), "fact.fid", "detail.fid2"),
		sqlmini.NewScan(dim, q.Preds["dim"]...), "fact.dimid", "dim.id")
	worse, err := sqlmini.Cost(bad)
	if err != nil {
		t.Fatal(err)
	}
	if good*5 > worse {
		t.Fatalf("optimizer plan (%d) not clearly better than bad plan (%d)", good, worse)
	}
}

func TestOptimizeErrors(t *testing.T) {
	dim, fact, detail := star()
	if _, _, err := Optimize(Query{}, card.Exact{}, HintDefault); err == nil {
		t.Fatal("empty query")
	}
	// Disconnected graph.
	q := Query{Tables: []*sqlmini.Table{dim, fact}, Preds: map[string][]sqlmini.Predicate{}}
	if _, _, err := Optimize(q, card.Exact{}, HintDefault); err == nil {
		t.Fatal("disconnected graph must error")
	}
	// Unknown table in edge.
	q2 := starQuery(dim, fact, detail)
	q2.Joins[0].LeftTable = "ghost"
	if _, _, err := Optimize(q2, card.Exact{}, HintDefault); err == nil {
		t.Fatal("unknown table must error")
	}
	// Too many tables.
	var many []*sqlmini.Table
	for i := 0; i < MaxTables+1; i++ {
		tb := sqlmini.NewTable(strings.Repeat("x", i+1), "a")
		many = append(many, tb)
	}
	if _, _, err := Optimize(Query{Tables: many}, card.Exact{}, HintDefault); err == nil {
		t.Fatal("table cap must error")
	}
}

func TestHintsRestrictAlgorithms(t *testing.T) {
	dim, fact, detail := star()
	q := starQuery(dim, fact, detail)
	hashPlan, _, err := Optimize(q, card.Exact{}, HintHashOnly)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(hashPlan.String(), "nljoin") {
		t.Fatalf("hash-only plan contains NL join: %s", hashPlan)
	}
	nlPlan, _, err := Optimize(q, card.Exact{}, HintNLOnly)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(nlPlan.String(), "hashjoin") {
		t.Fatalf("nl-only plan contains hash join: %s", nlPlan)
	}
}

func TestSingleTableQuery(t *testing.T) {
	dim, _, _ := star()
	q := Query{
		Tables: []*sqlmini.Table{dim},
		Preds:  map[string][]sqlmini.Predicate{"dim": {{Column: "kind", Op: sqlmini.Eq, Value: 1}}},
	}
	plan, _, err := Optimize(q, card.Exact{}, HintDefault)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := sqlmini.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestBadEstimatesProduceWorsePlans(t *testing.T) {
	// The core premise of learned optimization: plan quality tracks
	// estimate quality. An adversarially wrong estimator must yield a
	// plan no better than the exact-estimator plan.
	dim, fact, detail := star()
	q := starQuery(dim, fact, detail)
	exactPlan, _, err := Optimize(q, card.Exact{}, HintDefault)
	if err != nil {
		t.Fatal(err)
	}
	liarPlan, _, err := Optimize(q, liar{}, HintDefault)
	if err != nil {
		t.Fatal(err)
	}
	exactCost, _ := sqlmini.Cost(exactPlan)
	liarCost, _ := sqlmini.Cost(liarPlan)
	if liarCost < exactCost {
		t.Fatalf("liar estimator produced a better plan (%d < %d)", liarCost, exactCost)
	}
}

// liar inverts reality: claims big inputs are tiny and vice versa.
type liar struct{}

func (liar) Name() string { return "liar" }
func (liar) EstimateScan(t *sqlmini.Table, _ []sqlmini.Predicate) float64 {
	return 1e7 / (float64(t.Len()) + 1)
}
func (liar) EstimateJoin(l, r float64, _ *sqlmini.Table, _ string, _ *sqlmini.Table, _ string) float64 {
	return 1
}

func TestSteeringExploresThenConverges(t *testing.T) {
	s := NewSteering(0.5)
	tmpl := "q1"
	// Arm costs: default=100, hash=50, nl=500.
	costOf := map[Hint]float64{HintDefault: 100, HintHashOnly: 50, HintNLOnly: 500}
	picks := map[Hint]int{}
	for i := 0; i < 300; i++ {
		h := s.Choose(tmpl)
		picks[h]++
		s.Observe(tmpl, h, costOf[h])
	}
	if picks[HintHashOnly] < 200 {
		t.Fatalf("bandit did not converge to best arm: %v", picks)
	}
	if picks[HintDefault] == 0 || picks[HintNLOnly] == 0 {
		t.Fatal("bandit never explored some arms")
	}
	if s.TrainWork() != 300 {
		t.Fatalf("train work = %d", s.TrainWork())
	}
}

func TestSteeringAdaptsToCostShift(t *testing.T) {
	s := NewSteering(0.8)
	tmpl := "q2"
	// Phase 1: hash wins.
	for i := 0; i < 150; i++ {
		h := s.Choose(tmpl)
		c := 500.0
		if h == HintHashOnly {
			c = 50
		}
		s.Observe(tmpl, h, c)
	}
	// Phase 2: the world flips — NL wins now (e.g. inputs became tiny).
	picksLate := map[Hint]int{}
	for i := 0; i < 600; i++ {
		h := s.Choose(tmpl)
		c := 500.0
		if h == HintNLOnly {
			c = 50
		}
		s.Observe(tmpl, h, c)
		if i >= 400 {
			picksLate[h]++
		}
	}
	if picksLate[HintNLOnly] < 120 {
		t.Fatalf("bandit failed to adapt after cost shift: %v", picksLate)
	}
}

func TestSteeringPerTemplateIsolation(t *testing.T) {
	s := NewSteering(1)
	for i := 0; i < 50; i++ {
		h := s.Choose("a")
		c := 100.0
		if h == HintHashOnly {
			c = 10
		}
		s.Observe("a", h, c)
	}
	// Template "b" starts fresh: first three picks must cover all arms.
	seen := map[Hint]bool{}
	for i := 0; i < 3; i++ {
		h := s.Choose("b")
		seen[h] = true
		s.Observe("b", h, 1)
	}
	if len(seen) != 3 {
		t.Fatalf("new template did not explore all arms: %v", seen)
	}
}

func TestTemplateStability(t *testing.T) {
	dim, fact, detail := star()
	q1 := starQuery(dim, fact, detail)
	q2 := starQuery(dim, fact, detail)
	q2.Preds["dim"] = []sqlmini.Predicate{{Column: "kind", Op: sqlmini.Eq, Value: 4}} // different literal
	if Template(q1) != Template(q2) {
		t.Fatal("templates must ignore literals")
	}
	q3 := starQuery(dim, fact, detail)
	q3.Preds["dim"] = []sqlmini.Predicate{{Column: "kind", Op: sqlmini.Ge, Value: 4}} // different op
	if Template(q1) == Template(q3) {
		t.Fatal("templates must reflect predicate shape")
	}
}

func TestOptimizeSteeredEndToEnd(t *testing.T) {
	dim, fact, detail := star()
	q := starQuery(dim, fact, detail)
	s := NewSteering(1)
	rng := stats.NewRNG(1)
	for i := 0; i < 30; i++ {
		// Vary the literal like a real workload.
		q.Preds["dim"] = []sqlmini.Predicate{{Column: "kind", Op: sqlmini.Eq, Value: rng.Uint64() % 5}}
		plan, h, tmpl, err := OptimizeSteered(q, card.Exact{}, s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sqlmini.Cost(plan)
		if err != nil {
			t.Fatal(err)
		}
		s.Observe(tmpl, h, float64(c))
	}
	// After 30 queries of one template the bandit must have stats.
	if s.TrainWork() != 30 {
		t.Fatalf("train work = %d", s.TrainWork())
	}
}

func TestHintString(t *testing.T) {
	for _, h := range []Hint{HintDefault, HintHashOnly, HintNLOnly} {
		if h.String() == "" {
			t.Fatal("empty hint name")
		}
	}
	if Hint(99).String() == "" {
		t.Fatal("unknown hint must stringify")
	}
}
