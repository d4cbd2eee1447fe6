package card

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sqlmini"
)

// Learned is a workload-driven learned cardinality estimator: it maintains
// a per-column spline model of the CDF, initialized from a training set of
// (predicate, true cardinality) labels and refined online from execution
// feedback. This mirrors the supervised query-driven approach (e.g. Kipf
// et al. [25], Dutt et al. [29]): ground-truth labels come either from a
// separate training phase or from observing executed queries, and the
// benchmark charges both (paper §IV).
//
// Learned is safe for concurrent use: feedback arrives from driver workers
// while estimates are served.
type Learned struct {
	mu sync.RWMutex
	// knots[table.column] are (value, cumulative-count) control points,
	// kept sorted by value; estimates interpolate between knots and new
	// feedback inserts/updates knots — an online monotone regression.
	knots map[string][]knot
	rows  map[string]float64
	dv    map[string]float64
	// FeedbackCount is the number of labels absorbed (training set size
	// + online observations) — the label-collection cost (§IV).
	feedback int
	// trainWork accumulates model-update work units for the cost model.
	trainWork int
}

type knot struct {
	v   uint64
	cum float64 // estimated number of rows with value <= v
}

// NewLearned returns an untrained learned estimator.
func NewLearned() *Learned {
	return &Learned{
		knots: make(map[string][]knot),
		rows:  make(map[string]float64),
		dv:    make(map[string]float64),
	}
}

// Name implements Estimator.
func (l *Learned) Name() string { return "learned" }

// FeedbackCount reports how many ground-truth labels the model has seen.
func (l *Learned) FeedbackCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.feedback
}

// TrainWork reports accumulated model-update work units.
func (l *Learned) TrainWork() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.trainWork
}

// ObserveTable registers a table's row count and per-column distinct
// counts (cheap metadata the engine always has).
func (l *Learned) ObserveTable(t *sqlmini.Table) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rows[t.Name] = float64(t.Len())
	for _, c := range t.Columns {
		l.dv[t.Name+"."+c] = float64(t.DistinctCount(c))
	}
}

// Train absorbs a batch of labeled range predicates: for each predicate the
// true cardinality on the table, as produced during a training phase. It
// returns the number of labels absorbed.
func (l *Learned) Train(t *sqlmini.Table, preds []sqlmini.Predicate, truths []int) int {
	if len(preds) != len(truths) {
		panic("card: Train length mismatch")
	}
	for i, p := range preds {
		l.Feedback(t, p, truths[i])
	}
	return len(preds)
}

// Feedback folds one observed (predicate, true cardinality) label into the
// model online. Only single-column predicates update the model; the total
// row count is refreshed opportunistically.
func (l *Learned) Feedback(t *sqlmini.Table, p sqlmini.Predicate, truth int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.feedback++
	l.trainWork++
	l.rows[t.Name] = float64(t.Len())
	key := t.Name + "." + p.Column
	switch p.Op {
	case sqlmini.Lt:
		if p.Value > 0 {
			l.setKnot(key, p.Value-1, float64(truth))
		}
	case sqlmini.Ge:
		if p.Value == 0 {
			break
		}
		l.setKnot(key, p.Value-1, l.rows[t.Name]-float64(truth))
	case sqlmini.Between:
		// A between label pins the *difference* of two CDF points; use
		// it to refine the upper point against the current lower
		// estimate (a common trick in feedback-driven models).
		lo := l.cumAt(key, p.Value-1, t.Name)
		if p.Value == 0 {
			lo = 0
		}
		l.setKnot(key, p.Hi, lo+float64(truth))
	case sqlmini.Eq:
		// Equality feedback refines the distinct-count estimate:
		// E[rows per value] = truth  =>  dv ~ total/truth.
		if truth > 0 {
			l.dv[key] = l.rows[t.Name] / float64(truth)
		}
	}
}

// setKnot inserts or updates the knot at v, then restores monotonicity by
// blending violating neighbours (isotonic repair).
func (l *Learned) setKnot(key string, v uint64, cum float64) {
	if cum < 0 {
		cum = 0
	}
	ks := l.knots[key]
	i := sort.Search(len(ks), func(i int) bool { return ks[i].v >= v })
	if i < len(ks) && ks[i].v == v {
		// Exponential moving average keeps the model stable under
		// noisy or drifting feedback while still tracking change.
		ks[i].cum = 0.5*ks[i].cum + 0.5*cum
	} else {
		ks = append(ks, knot{})
		copy(ks[i+1:], ks[i:])
		ks[i] = knot{v: v, cum: cum}
		l.trainWork++
	}
	// Isotonic repair: push violations outward from i.
	for j := i - 1; j >= 0; j-- {
		if ks[j].cum > ks[j+1].cum {
			ks[j].cum = ks[j+1].cum
		} else {
			break
		}
	}
	for j := i + 1; j < len(ks); j++ {
		if ks[j].cum < ks[j-1].cum {
			ks[j].cum = ks[j-1].cum
		} else {
			break
		}
	}
	// Bound model size: drop every other interior knot beyond a cap.
	const maxKnots = 512
	if len(ks) > maxKnots {
		w := 0
		for j := 0; j < len(ks); j++ {
			if j == 0 || j == len(ks)-1 || j%2 == 0 {
				ks[w] = ks[j]
				w++
			}
		}
		ks = ks[:w]
	}
	l.knots[key] = ks
}

// cumAt interpolates the modeled cumulative count at v (callers hold mu).
func (l *Learned) cumAt(key string, v uint64, table string) float64 {
	ks := l.knots[key]
	total := l.rows[table]
	if len(ks) == 0 {
		// Untrained column: assume uniform over the value domain is
		// impossible without bounds; fall back to half the table.
		return total / 2
	}
	i := sort.Search(len(ks), func(i int) bool { return ks[i].v >= v })
	switch {
	case i == 0:
		if ks[0].v == v {
			return ks[0].cum
		}
		// Below the first knot: interpolate from (0-ish, 0).
		if ks[0].v == 0 {
			return 0
		}
		return ks[0].cum * float64(v) / float64(ks[0].v)
	case i == len(ks):
		// Above the last knot: clamp to the larger of last knot and
		// table size heuristic.
		return ks[len(ks)-1].cum
	default:
		lo, hi := ks[i-1], ks[i]
		if hi.v == v {
			return hi.cum
		}
		frac := float64(v-lo.v) / float64(hi.v-lo.v)
		return lo.cum + frac*(hi.cum-lo.cum)
	}
}

// EstimateScan implements Estimator.
func (l *Learned) EstimateScan(t *sqlmini.Table, preds []sqlmini.Predicate) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	total := l.rows[t.Name]
	if total == 0 {
		total = float64(t.Len())
	}
	if total == 0 {
		return 0
	}
	sel := 1.0
	for _, p := range preds {
		key := t.Name + "." + p.Column
		var s float64
		switch p.Op {
		case sqlmini.Lt:
			if p.Value == 0 {
				s = 0
			} else {
				s = l.cumAt(key, p.Value-1, t.Name) / total
			}
		case sqlmini.Ge:
			if p.Value == 0 {
				s = 1
			} else {
				s = 1 - l.cumAt(key, p.Value-1, t.Name)/total
			}
		case sqlmini.Between:
			lo := 0.0
			if p.Value > 0 {
				lo = l.cumAt(key, p.Value-1, t.Name)
			}
			s = (l.cumAt(key, p.Hi, t.Name) - lo) / total
		case sqlmini.Eq:
			dv := l.dv[key]
			if dv < 1 {
				dv = 10
			}
			s = 1 / dv
		}
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		sel *= s
	}
	return total * sel
}

// EstimateJoin implements JoinEstimator.
func (l *Learned) EstimateJoin(lc, rc float64, lt *sqlmini.Table, lcol string, rt *sqlmini.Table, rcol string) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ldv := l.dv[lt.Name+"."+lcol]
	rdv := l.dv[rt.Name+"."+rcol]
	if ldv < 1 || rdv < 1 {
		return lc * rc * 0.01
	}
	return containmentJoin(lc, rc, ldv, rdv)
}

// String summarizes the model.
func (l *Learned) String() string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return fmt.Sprintf("learned{cols=%d feedback=%d}", len(l.knots), l.feedback)
}
