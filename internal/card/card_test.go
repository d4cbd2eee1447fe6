package card

import (
	"testing"

	"repro/internal/sqlmini"
	"repro/internal/stats"
)

// skewedTable builds a table whose "v" column is heavily skewed and whose
// "u" column is uniform.
func skewedTable(n int, seed uint64) *sqlmini.Table {
	t := sqlmini.NewTable("t", "u", "v")
	rng := stats.NewRNG(seed)
	z := stats.NewZipf(rng.Split(), 1.2, 1000)
	for i := 0; i < n; i++ {
		t.Append(rng.Uint64()%10000, z.Next())
	}
	return t
}

func TestQError(t *testing.T) {
	if QError(10, 10) != 1 {
		t.Fatal("perfect")
	}
	if QError(100, 10) != 10 || QError(10, 100) != 10 {
		t.Fatal("symmetric")
	}
	if QError(0, 0) != 1 {
		t.Fatal("zero clamp")
	}
}

func TestExactIsPerfect(t *testing.T) {
	tab := skewedTable(5000, 1)
	e := Exact{}
	for _, p := range []sqlmini.Predicate{
		{Column: "u", Op: sqlmini.Lt, Value: 5000},
		{Column: "v", Op: sqlmini.Ge, Value: 100},
		{Column: "v", Op: sqlmini.Between, Value: 10, Hi: 50},
	} {
		truth := float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
		if got := e.EstimateScan(tab, []sqlmini.Predicate{p}); got != truth {
			t.Fatalf("exact estimate %v != truth %v for %v", got, truth, p)
		}
	}
}

func TestHistogramAccurateOnUniform(t *testing.T) {
	tab := skewedTable(20000, 2)
	h := NewHistogram(64)
	if work := h.Analyze(tab); work <= 0 {
		t.Fatal("analyze reported no work")
	}
	p := sqlmini.Predicate{Column: "u", Op: sqlmini.Lt, Value: 5000}
	truth := float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
	if q := QError(h.EstimateScan(tab, []sqlmini.Predicate{p}), truth); q > 1.3 {
		t.Fatalf("histogram q-error %v on uniform range", q)
	}
}

func TestHistogramHandlesSkewedRange(t *testing.T) {
	tab := skewedTable(20000, 3)
	h := NewHistogram(128)
	h.Analyze(tab)
	// Equi-depth histograms stay decent on skewed range predicates.
	p := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: 10}
	truth := float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
	if q := QError(h.EstimateScan(tab, []sqlmini.Predicate{p}), truth); q > 2.0 {
		t.Fatalf("histogram q-error %v on skewed range (truth %v)", q, truth)
	}
}

func TestHistogramGoesStaleAfterDrift(t *testing.T) {
	tab := skewedTable(10000, 4)
	h := NewHistogram(64)
	h.Analyze(tab)
	p := sqlmini.Predicate{Column: "u", Op: sqlmini.Ge, Value: 1 << 20}
	before := QError(h.EstimateScan(tab, []sqlmini.Predicate{p}),
		float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p})))
	// Drift: all u values move up by 2^20 without re-analyze.
	newRows := make([][]uint64, len(tab.Rows))
	for i, r := range tab.Rows {
		newRows[i] = []uint64{r[0] + 1<<20, r[1]}
	}
	tab.ReplaceRows(newRows)
	after := QError(h.EstimateScan(tab, []sqlmini.Predicate{p}),
		float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p})))
	if after < before*10 {
		t.Fatalf("histogram should be badly stale: before q=%v after q=%v", before, after)
	}
	// Re-analyze fixes it.
	h.Analyze(tab)
	fixed := QError(h.EstimateScan(tab, []sqlmini.Predicate{p}),
		float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p})))
	if fixed > 1.5 {
		t.Fatalf("re-analyze did not fix staleness: q=%v", fixed)
	}
}

func TestHistogramUnanalyzedFallback(t *testing.T) {
	tab := skewedTable(1000, 5)
	h := NewHistogram(16)
	got := h.EstimateScan(tab, []sqlmini.Predicate{{Column: "u", Op: sqlmini.Eq, Value: 5}})
	if got <= 0 || got > 1000 {
		t.Fatalf("fallback estimate = %v", got)
	}
}

func TestSampleEstimator(t *testing.T) {
	tab := skewedTable(20000, 6)
	s := NewSample(0.05)
	s.Analyze(tab)
	for _, p := range []sqlmini.Predicate{
		{Column: "u", Op: sqlmini.Lt, Value: 3000},
		{Column: "v", Op: sqlmini.Between, Value: 0, Hi: 20},
	} {
		truth := float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
		if q := QError(s.EstimateScan(tab, []sqlmini.Predicate{p}), truth); q > 1.5 {
			t.Fatalf("sample q-error %v for %v", q, p)
		}
	}
}

func TestSamplePanicsOnBadRate(t *testing.T) {
	for _, r := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v: no panic", r)
				}
			}()
			NewSample(r)
		}()
	}
}

func TestJoinEstimates(t *testing.T) {
	users := sqlmini.NewTable("users", "id")
	for i := uint64(0); i < 100; i++ {
		users.Append(i)
	}
	orders := sqlmini.NewTable("orders", "uid")
	for i := uint64(0); i < 300; i++ {
		orders.Append(i % 100)
	}
	truth := 300.0
	for _, est := range []JoinEstimator{Exact{}, analyzedHist(users, orders), analyzedSample(users, orders)} {
		got := est.EstimateJoin(100, 300, users, "id", orders, "uid")
		if q := QError(got, truth); q > 1.5 {
			t.Fatalf("%s join q-error %v (est %v)", est.Name(), q, got)
		}
	}
}

func analyzedHist(ts ...*sqlmini.Table) *Histogram {
	h := NewHistogram(32)
	for _, t := range ts {
		h.Analyze(t)
	}
	return h
}

func analyzedSample(ts ...*sqlmini.Table) *Sample {
	s := NewSample(0.1)
	for _, t := range ts {
		s.Analyze(t)
	}
	return s
}

func TestLearnedUntrainedIsVague(t *testing.T) {
	tab := skewedTable(10000, 7)
	l := NewLearned()
	l.ObserveTable(tab)
	p := sqlmini.Predicate{Column: "u", Op: sqlmini.Lt, Value: 100}
	got := l.EstimateScan(tab, []sqlmini.Predicate{p})
	if got <= 0 || got > 10000 {
		t.Fatalf("untrained estimate out of range: %v", got)
	}
}

func TestLearnedImprovesWithTraining(t *testing.T) {
	tab := skewedTable(20000, 8)
	l := NewLearned()
	l.ObserveTable(tab)
	probe := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: 17}
	truth := float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{probe}))
	before := QError(l.EstimateScan(tab, []sqlmini.Predicate{probe}), truth)

	// Training phase: labeled range queries across the v domain.
	var preds []sqlmini.Predicate
	var truths []int
	for hi := uint64(1); hi <= 1024; hi *= 2 {
		p := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: hi}
		preds = append(preds, p)
		truths = append(truths, sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
	}
	l.Train(tab, preds, truths)

	after := QError(l.EstimateScan(tab, []sqlmini.Predicate{probe}), truth)
	if after >= before {
		t.Fatalf("training did not improve: before q=%v after q=%v", before, after)
	}
	if after > 2.5 {
		t.Fatalf("trained q-error still %v", after)
	}
	if l.FeedbackCount() != len(preds) {
		t.Fatalf("feedback count = %d", l.FeedbackCount())
	}
	if l.TrainWork() == 0 {
		t.Fatal("no training work recorded")
	}
}

func TestLearnedAdaptsToDrift(t *testing.T) {
	tab := skewedTable(10000, 9)
	l := NewLearned()
	l.ObserveTable(tab)
	// Train on the original distribution.
	for hi := uint64(1); hi <= 1024; hi *= 2 {
		p := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: hi}
		l.Feedback(tab, p, sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
	}
	// Drift: shift v by +512.
	rows := make([][]uint64, len(tab.Rows))
	for i, r := range tab.Rows {
		rows[i] = []uint64{r[0], r[1] + 512}
	}
	tab.ReplaceRows(rows)
	probe := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: 520}
	truth := float64(sqlmini.TrueCardinality(tab, []sqlmini.Predicate{probe}))
	stale := QError(l.EstimateScan(tab, []sqlmini.Predicate{probe}), truth)
	// Online feedback after drift (as executed queries return counts).
	// The zipf CDF is sharply curved just past the shift point, so the
	// workload's own queries supply dense labels there — exactly what
	// query-driven estimators rely on.
	for rep := 0; rep < 2; rep++ {
		for hi := uint64(513); hi <= 1600; hi += 8 {
			p := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: hi}
			l.Feedback(tab, p, sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
		}
	}
	adapted := QError(l.EstimateScan(tab, []sqlmini.Predicate{probe}), truth)
	if adapted >= stale {
		t.Fatalf("online feedback did not adapt: stale q=%v adapted q=%v", stale, adapted)
	}
	if adapted > 3 {
		t.Fatalf("adapted q-error still %v", adapted)
	}
}

func TestLearnedEqAndGeFeedback(t *testing.T) {
	tab := skewedTable(10000, 10)
	l := NewLearned()
	l.ObserveTable(tab)
	pEq := sqlmini.Predicate{Column: "v", Op: sqlmini.Eq, Value: 0}
	truthEq := sqlmini.TrueCardinality(tab, []sqlmini.Predicate{pEq})
	l.Feedback(tab, pEq, truthEq)
	estEq := l.EstimateScan(tab, []sqlmini.Predicate{pEq})
	if q := QError(estEq, float64(truthEq)); q > 2 {
		t.Fatalf("eq feedback q-error %v", q)
	}

	pGe := sqlmini.Predicate{Column: "v", Op: sqlmini.Ge, Value: 100}
	truthGe := sqlmini.TrueCardinality(tab, []sqlmini.Predicate{pGe})
	l.Feedback(tab, pGe, truthGe)
	if q := QError(l.EstimateScan(tab, []sqlmini.Predicate{pGe}), float64(truthGe)); q > 1.6 {
		t.Fatalf("ge feedback q-error %v", q)
	}
}

func TestLearnedMonotoneModel(t *testing.T) {
	tab := skewedTable(5000, 11)
	l := NewLearned()
	l.ObserveTable(tab)
	// Noisy, out-of-order feedback must keep estimates monotone in the
	// range bound.
	rng := stats.NewRNG(12)
	for i := 0; i < 200; i++ {
		hi := rng.Uint64() % 2000
		p := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: hi}
		l.Feedback(tab, p, sqlmini.TrueCardinality(tab, []sqlmini.Predicate{p}))
	}
	prev := -1.0
	for hi := uint64(0); hi <= 2000; hi += 50 {
		est := l.EstimateScan(tab, []sqlmini.Predicate{{Column: "v", Op: sqlmini.Lt, Value: hi}})
		if est < prev-1e-9 {
			t.Fatalf("estimates not monotone at %d: %v after %v", hi, est, prev)
		}
		prev = est
	}
}

func TestLearnedKnotCap(t *testing.T) {
	tab := skewedTable(5000, 13)
	l := NewLearned()
	l.ObserveTable(tab)
	for v := uint64(0); v < 3000; v++ {
		l.Feedback(tab, sqlmini.Predicate{Column: "u", Op: sqlmini.Lt, Value: v + 1}, int(v))
	}
	if n := len(l.knots["t.u"]); n > 512 {
		t.Fatalf("knot count %d exceeds cap", n)
	}
	if l.String() == "" {
		t.Fatal("empty String")
	}
}

func TestLearnedConcurrentSafety(t *testing.T) {
	tab := skewedTable(2000, 14)
	l := NewLearned()
	l.ObserveTable(tab)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			p := sqlmini.Predicate{Column: "v", Op: sqlmini.Lt, Value: uint64(i % 500)}
			l.Feedback(tab, p, i%100)
		}
	}()
	for i := 0; i < 2000; i++ {
		l.EstimateScan(tab, []sqlmini.Predicate{{Column: "v", Op: sqlmini.Lt, Value: uint64(i % 500)}})
	}
	<-done
}
