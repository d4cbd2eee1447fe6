// Package optimizer implements cost-based query optimization for the mini
// SQL engine: a dynamic-programming join-order optimizer parameterized by
// a cardinality estimator (so traditional-histogram and learned estimators
// are drop-in alternatives), and a Bao-style bandit that *steers* the
// optimizer by choosing among hint sets based on observed execution cost
// (Marcus et al., "Bao: Learning to Steer Query Optimizers" [14]).
//
// Together with package card this forms the learned-query-optimizer SUT:
// when data drifts, the histogram-driven optimizer keeps emitting a stale
// plan while the steered optimizer pays a short exploration penalty and
// recovers — the adaptability behaviour the benchmark's Figure 1b/1c
// metrics are designed to expose.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/card"
	"repro/internal/sqlmini"
)

// JoinEdge declares an equi-join between two base-table columns.
type JoinEdge struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// Query is a select-project-join query: base tables with per-table filter
// predicates and a set of equi-join edges.
type Query struct {
	Tables []*sqlmini.Table
	Preds  map[string][]sqlmini.Predicate // table name -> filters
	Joins  []JoinEdge
}

// MaxTables bounds the DP (3^n subset enumeration).
const MaxTables = 10

// Hint restricts the physical operators the optimizer may pick — the
// steering surface of the Bao-style bandit.
type Hint int

// Hint sets. HintDefault lets the cost model choose per join; the others
// force one algorithm globally.
const (
	HintDefault Hint = iota
	HintHashOnly
	HintNLOnly
	numHints
)

// String names the hint.
func (h Hint) String() string {
	switch h {
	case HintDefault:
		return "default"
	case HintHashOnly:
		return "hash-only"
	case HintNLOnly:
		return "nl-only"
	default:
		return fmt.Sprintf("Hint(%d)", int(h))
	}
}

// planInfo is a DP table entry.
type planInfo struct {
	plan *sqlmini.Plan
	card float64 // estimated output rows
	cost float64 // estimated cumulative rows touched
}

// Optimize returns the cheapest plan for q under the estimator and hint,
// with its estimated cost. It returns an error for malformed queries
// (too many tables, unknown tables in edges, or a disconnected join graph).
func Optimize(q Query, est card.JoinEstimator, hint Hint) (*sqlmini.Plan, float64, error) {
	n := len(q.Tables)
	if n == 0 {
		return nil, 0, fmt.Errorf("optimizer: query has no tables")
	}
	if n > MaxTables {
		return nil, 0, fmt.Errorf("optimizer: %d tables exceeds MaxTables=%d", n, MaxTables)
	}
	tblIdx := make(map[string]int, n)
	for i, t := range q.Tables {
		tblIdx[t.Name] = i
	}
	for _, e := range q.Joins {
		if _, ok := tblIdx[e.LeftTable]; !ok {
			return nil, 0, fmt.Errorf("optimizer: join references unknown table %q", e.LeftTable)
		}
		if _, ok := tblIdx[e.RightTable]; !ok {
			return nil, 0, fmt.Errorf("optimizer: join references unknown table %q", e.RightTable)
		}
	}

	dp := make(map[uint32]planInfo, 1<<n)
	for i, t := range q.Tables {
		preds := q.Preds[t.Name]
		c := est.EstimateScan(t, preds)
		if c < 1 {
			c = 1
		}
		dp[1<<i] = planInfo{
			plan: sqlmini.NewScan(t, preds...),
			card: c,
			cost: float64(t.Len()),
		}
	}

	full := uint32(1<<n) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		var best planInfo
		found := false
		// Enumerate proper sub-partitions A|B of mask.
		for a := (mask - 1) & mask; a > 0; a = (a - 1) & mask {
			b := mask ^ a
			if a > b {
				continue // each partition once
			}
			pa, oka := dp[a]
			pb, okb := dp[b]
			if !oka || !okb {
				continue
			}
			// Find a join edge connecting A and B.
			for _, e := range q.Joins {
				li, ri := tblIdx[e.LeftTable], tblIdx[e.RightTable]
				var left, right planInfo
				var lcol, rcol string
				var lt, rt *sqlmini.Table
				switch {
				case a&(1<<li) != 0 && b&(1<<ri) != 0:
					left, right = pa, pb
					lcol, rcol = e.LeftTable+"."+e.LeftCol, e.RightTable+"."+e.RightCol
					lt, rt = q.Tables[li], q.Tables[ri]
				case b&(1<<li) != 0 && a&(1<<ri) != 0:
					left, right = pb, pa
					lcol, rcol = e.LeftTable+"."+e.LeftCol, e.RightTable+"."+e.RightCol
					lt, rt = q.Tables[li], q.Tables[ri]
				default:
					continue
				}
				outCard := est.EstimateJoin(left.card, right.card, lt, e.LeftCol, rt, e.RightCol)
				if outCard < 1 {
					outCard = 1
				}
				for _, algo := range allowedAlgos(hint) {
					cost := left.cost + right.cost + joinCost(algo, left.card, right.card, outCard)
					if !found || cost < best.cost {
						best = planInfo{
							plan: sqlmini.NewJoin(algo, left.plan, right.plan, lcol, rcol),
							card: outCard,
							cost: cost,
						}
						found = true
					}
				}
			}
		}
		if found {
			dp[mask] = best
		}
	}
	res, ok := dp[full]
	if !ok {
		return nil, 0, fmt.Errorf("optimizer: join graph is disconnected")
	}
	return res.plan, res.cost, nil
}

func allowedAlgos(h Hint) []sqlmini.JoinAlgo {
	switch h {
	case HintHashOnly:
		return []sqlmini.JoinAlgo{sqlmini.HashJoin}
	case HintNLOnly:
		return []sqlmini.JoinAlgo{sqlmini.NestedLoopJoin}
	default:
		return []sqlmini.JoinAlgo{sqlmini.HashJoin, sqlmini.NestedLoopJoin}
	}
}

// joinCost mirrors the executor's RowsTouched accounting.
func joinCost(algo sqlmini.JoinAlgo, l, r, out float64) float64 {
	if algo == sqlmini.HashJoin {
		return l + r + out
	}
	return l * r
}

// Steering is the Bao-style bandit: per query template it runs UCB1 over
// hint sets, learning from observed execution costs. Safe for sequential
// use by one optimizer loop (the driver serializes per SUT).
type Steering struct {
	// c is the UCB exploration constant (in units of normalized reward).
	c float64
	// arms[template][hint] tracks observations.
	arms map[string]*armStats
	// trainWork counts bandit updates for the cost model.
	trainWork int
}

type armStats struct {
	count    [numHints]int
	meanCost [numHints]float64
	total    int
}

// NewSteering returns a bandit with the given exploration constant
// (0 falls back to 1.0).
func NewSteering(c float64) *Steering {
	if c <= 0 {
		c = 1.0
	}
	return &Steering{c: c, arms: make(map[string]*armStats)}
}

// Choose picks the hint to use for the given query template. Unexplored
// arms are tried first (in order); afterwards UCB1 on negative normalized
// cost decides.
func (s *Steering) Choose(template string) Hint {
	st, ok := s.arms[template]
	if !ok {
		st = &armStats{}
		s.arms[template] = st
	}
	for h := 0; h < int(numHints); h++ {
		if st.count[h] == 0 {
			return Hint(h)
		}
	}
	// All arms explored: minimize lower confidence bound of cost.
	// Normalize by the worst observed mean so the exploration term is
	// scale-free.
	worst := 0.0
	for h := 0; h < int(numHints); h++ {
		if st.meanCost[h] > worst {
			worst = st.meanCost[h]
		}
	}
	if worst == 0 {
		worst = 1
	}
	bestH, bestLCB := Hint(0), math.Inf(1)
	for h := 0; h < int(numHints); h++ {
		norm := st.meanCost[h] / worst
		lcb := norm - s.c*math.Sqrt(math.Log(float64(st.total+1))/float64(st.count[h]))
		if lcb < bestLCB {
			bestH, bestLCB = Hint(h), lcb
		}
	}
	return bestH
}

// Observe records the measured execution cost of running template under
// hint. Costs are decayed (EMA) so the bandit tracks drift.
func (s *Steering) Observe(template string, h Hint, cost float64) {
	st, ok := s.arms[template]
	if !ok {
		st = &armStats{}
		s.arms[template] = st
	}
	s.trainWork++
	st.total++
	i := int(h)
	if st.count[i] == 0 {
		st.meanCost[i] = cost
	} else {
		// EMA with a floor on the effective window keeps the bandit
		// responsive to distribution change (the decayed average is
		// what lets it *re*-learn after drift).
		alpha := 0.2
		st.meanCost[i] = (1-alpha)*st.meanCost[i] + alpha*cost
	}
	st.count[i]++
}

// TrainWork reports accumulated bandit updates for the cost model.
func (s *Steering) TrainWork() int { return s.trainWork }

// Template produces a stable template string for a query (its join graph
// and predicate shape, not literals).
func Template(q Query) string {
	out := ""
	for _, t := range q.Tables {
		out += t.Name + ";"
		for _, p := range q.Preds[t.Name] {
			out += p.Column + p.Op.String() + ","
		}
	}
	for _, e := range q.Joins {
		out += fmt.Sprintf("%s.%s=%s.%s|", e.LeftTable, e.LeftCol, e.RightTable, e.RightCol)
	}
	return out
}

// OptimizeSteered runs the full steered pipeline for one query: choose a
// hint, optimize under it, and return plan, hint, and template (the caller
// executes the plan and calls steering.Observe with the measured cost).
func OptimizeSteered(q Query, est card.JoinEstimator, s *Steering) (*sqlmini.Plan, Hint, string, error) {
	tmpl := Template(q)
	h := s.Choose(tmpl)
	plan, _, err := Optimize(q, est, h)
	return plan, h, tmpl, err
}
