package figures

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/driftctl"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/report"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// Fig 1g is the adaptability-vs-drift-intensity sweep: the driftctl knob
// D ∈ [0,1] dials how far the workload transports away from what every
// system trained on, and each SUT family's metric quadruple (throughput,
// p99, SLA violation rate, adjustment speed) is plotted against it. Three
// panels: data drift (key-distribution transport, KV SUT families), query
// drift (predicate location/selectivity transport, SQL optimizer
// families), and interactive sessions (the same data drift paced by
// think-time sessions with a per-session budget). Every run is
// virtual-clock deterministic and byte-identical at any parallelism.

// Fig1gIntensities is the drift-factor sweep (≥4 points).
var Fig1gIntensities = []float64{0, 0.25, 0.5, 0.75, 1}

// Fig1g session pacing (virtual ns). Bursts of 4–10 ops arrive
// 2µs apart — comparable to service times, so queueing inside a burst
// makes the session makespan latency-sensitive — separated by ≥200µs
// think gaps, with a 34µs per-session completion budget — tight enough
// that drift-induced queueing turns into missed budgets.
const (
	Fig1gSessionThinkNs  = 200_000
	Fig1gSessionIntraNs  = 2_000
	Fig1gSessionBudgetNs = 34_000
)

// Fig1gData is one (intensity, SUT) cell of the data-drift panel.
type Fig1gData struct {
	D float64
	// Divergence is the controller's predicted KS divergence from the
	// base key distribution at full profile weight — the common x-scale
	// that makes D comparable across base/target pairs.
	Divergence    float64
	SUT           string
	Throughput    float64
	P99Ns         int64
	ViolationRate float64
	// AdjustmentNs is the over-SLA time right after the drift phase
	// begins (adjustment-speed metric).
	AdjustmentNs int64
}

// Fig1gQuery is one (intensity, system) cell of the query-drift panel.
type Fig1gQuery struct {
	D             float64
	System        string
	Throughput    float64
	P99Ns         int64
	ViolationRate float64
	TrainWork     int64
}

// Fig1gSession is one (intensity, SUT) cell of the session panel.
type Fig1gSession struct {
	D             float64
	SUT           string
	Sessions      int64
	MetRate       float64
	LateOps       int64
	MakespanP99Ns int64
}

// Fig1gResult carries the three panels plus the raw per-run results
// (keyed "data/<D>/<sut>", "session/<D>/<sut>", "query/<D>/<system>") for
// JSON pinning.
type Fig1gResult struct {
	Intensities []float64
	Data        []Fig1gData
	Query       []Fig1gQuery
	Session     []Fig1gSession
	Results     map[string]*core.Result
	SQLResults  map[string]*core.Result
}

// fig1gController builds the data-drift controller for intensity d: keys
// transport from the trained low half of the domain to the never-seen high
// half. The profile is constant, so the drift phase opens with a step of
// magnitude D — that onset is what the adjustment-speed metric measures —
// and the disjoint halves put the base→target span at the full KS scale,
// making Divergence(d) ≈ d: the drift factor IS the divergence dial.
func fig1gController(seed uint64, d float64) *driftctl.Controller {
	half := distgen.KeyDomain / 2
	baseF := func(s uint64) distgen.Generator { return distgen.NewUniform(s, 0, half) }
	targetF := func(s uint64) distgen.Generator { return distgen.NewUniform(s, half, distgen.KeyDomain) }
	knob := driftctl.Knob{Factor: d, Profile: driftctl.Constant()}
	return driftctl.NewCalibrated(seed, baseF, targetF, knob, 0)
}

// fig1gDataScenario is the two-phase data-drift scenario at intensity d:
// a steady phase on the trained distribution (SLA calibrates here), then a
// drift phase whose keys transport toward the unseen half of the domain.
// arrival paces phase i (nil means closed loop).
func fig1gDataScenario(scale Scale, seed uint64, d float64, arrival func(i int) workload.Arrival) (core.Scenario, *driftctl.Controller) {
	if arrival == nil {
		arrival = func(int) workload.Arrival { return nil }
	}
	half := distgen.KeyDomain / 2
	ctrl := fig1gController(seed+7, d)
	return core.Scenario{
		Name:        fmt.Sprintf("fig1g-data-D%.2f", d),
		Seed:        seed,
		InitialData: distgen.NewUniform(seed+1, 0, half),
		InitialSize: scale.DataSize,
		TrainBefore: true,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{
			{
				Name: "steady",
				Ops:  scale.Ops / 2,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: distgen.NewUniform(seed+2, 0, half)},
				}, arrival(0)),
			},
			{
				Name: "drift",
				Ops:  scale.Ops,
				Source: workload.FromSpec(workload.Spec{
					Mix:    workload.Balanced,
					Access: ctrl,
				}, arrival(1)),
			},
		},
	}, ctrl
}

// fig1gKVSUTs is the data/session panel SUT family list.
func fig1gKVSUTs() (names []string, factories []func() core.SUT) {
	names = []string{"btree", "rmi", "alex"}
	factories = []func() core.SUT{core.NewBTreeSUT, core.NewRMISUT, core.NewALEXSUT}
	return
}

// Fig1g runs the drift-intensity sweep over Fig1gIntensities, with the
// session panel paced by the Fig1gSession* constants.
func Fig1g(scale Scale, seed uint64) (*Fig1gResult, error) {
	res := &Fig1gResult{
		Intensities: Fig1gIntensities,
		Results:     make(map[string]*core.Result),
		SQLResults:  make(map[string]*core.Result),
	}
	runner := newRunner(scale)
	names, factories := fig1gKVSUTs()

	// Panel 1: data drift.
	for _, d := range Fig1gIntensities {
		scenario, ctrl := fig1gDataScenario(scale, seed, d, nil)
		results, err := runner.RunAll(scenario, factories)
		if err != nil {
			return nil, fmt.Errorf("figures: fig1g data D=%.2f: %w", d, err)
		}
		for i, r := range results {
			adj := int64(0)
			if len(r.PostChangeLatencies) > 0 {
				adj = metrics.AdjustmentSpeed(r.PostChangeLatencies[0], r.SLANs, len(r.PostChangeLatencies[0]))
			}
			res.Data = append(res.Data, Fig1gData{
				D:             d,
				Divergence:    ctrl.Divergence(d),
				SUT:           names[i],
				Throughput:    r.Throughput(),
				P99Ns:         r.Latency.Quantile(0.99),
				ViolationRate: r.Bands.ViolationRate(),
				AdjustmentNs:  adj,
			})
			res.Results[fmt.Sprintf("data/%.2f/%s", d, names[i])] = r
		}
	}

	// Panel 2: query drift. The same star database throughout (no
	// mutation): only the predicates transport — windows move from the
	// sparse tail of the zipf value column into the hot dense region and
	// widen 8x, so cardinalities explode relative to what the first
	// queries looked like. Each system sees the identical query stream
	// (db and drift rebuilt from the same seeds); the ramp profile keeps
	// the SLA-calibration quarter near-undrifted.
	n := scale.Ops / 10
	if n < 200 {
		n = 200
	}
	for _, d := range Fig1gIntensities {
		for _, name := range []string{"static-histogram", "static-sample", "learned-steered"} {
			db := newOptDriftDB(scale, seed+500)
			pd := driftctl.NewPredicateDrift(seed+501,
				driftctl.Knob{Factor: d, Profile: driftctl.Ramp()},
				"val", 512, 64, 0, 8)
			scenario := core.QueryScenario(fmt.Sprintf("fig1g-query-D%.2f", d), n)
			scenario.IntervalNs = scale.IntervalNs * 10
			r, err := runQueries(scenario, sqlSystems[name](db), func(i int) optimizer.Query {
				return optimizer.Query{
					Tables: []*sqlmini.Table{db.dim, db.fact},
					Preds: map[string][]sqlmini.Predicate{
						"dim":  {{Column: "kind", Op: sqlmini.Eq, Value: db.rng.Uint64() % 10}},
						"fact": {pd.PredicateAt(float64(i) / float64(n))},
					},
					Joins: []optimizer.JoinEdge{{
						LeftTable: "dim", LeftCol: "id", RightTable: "fact", RightCol: "dimid",
					}},
				}
			})
			if err != nil {
				return nil, fmt.Errorf("figures: fig1g query D=%.2f %s: %w", d, name, err)
			}
			res.Query = append(res.Query, Fig1gQuery{
				D:             d,
				System:        name,
				Throughput:    r.Throughput(),
				P99Ns:         r.Latency.Quantile(0.99),
				ViolationRate: r.Bands.ViolationRate(),
				TrainWork:     r.OnlineTrainWork,
			})
			res.SQLResults[fmt.Sprintf("query/%.2f/%s", d, name)] = r
		}
	}

	// Panel 3: interactive sessions under data drift — the same transport
	// paced by think-time sessions, scored by the per-session budget.
	for _, d := range Fig1gIntensities {
		scenario, _ := fig1gDataScenario(scale, seed+900, d, func(i int) workload.Arrival {
			return workload.NewSessionArrival(
				seed+901+uint64(i)*31, Fig1gSessionThinkNs, Fig1gSessionIntraNs, 4, 10)
		})
		scenario.Name = fmt.Sprintf("fig1g-session-D%.2f", d)
		scenario.Session = &workload.SessionSpec{GapNs: Fig1gSessionThinkNs, BudgetNs: Fig1gSessionBudgetNs}
		results, err := runner.RunAll(scenario, factories)
		if err != nil {
			return nil, fmt.Errorf("figures: fig1g session D=%.2f: %w", d, err)
		}
		for i, r := range results {
			ss := r.Sessions
			if ss == nil {
				return nil, fmt.Errorf("figures: fig1g session D=%.2f %s: no session stats", d, names[i])
			}
			res.Session = append(res.Session, Fig1gSession{
				D:             d,
				SUT:           names[i],
				Sessions:      ss.Sessions,
				MetRate:       ss.MetRate(),
				LateOps:       ss.LateOps,
				MakespanP99Ns: ss.Makespan.Quantile(0.99),
			})
			res.Results[fmt.Sprintf("session/%.2f/%s", d, names[i])] = r
		}
	}
	return res, nil
}

// renderFig1g prints the three panels as tables and emits them as one
// long-format CSV.
func renderFig1g(w io.Writer, res *Fig1gResult, csv csvFunc) {
	fmt.Fprintln(w, "data drift — metric quadruple vs drift intensity D (keys transport to unseen domain half):")
	var rows [][]string
	for _, c := range res.Data {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", c.D),
			fmt.Sprintf("%.3f", c.Divergence),
			c.SUT,
			fmt.Sprintf("%.0f", c.Throughput),
			fmt.Sprintf("%.1fus", float64(c.P99Ns)/1e3),
			fmt.Sprintf("%.2f", c.ViolationRate*100),
			fmt.Sprintf("%.3fms", float64(c.AdjustmentNs)/1e6),
		})
	}
	report.Table(w, []string{"D", "phi(KS)", "sut", "ops/s", "p99", "viol%", "adjust"}, rows)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "query drift — predicate windows transport from the tail into the hot region, widening 8x:")
	rows = rows[:0]
	for _, c := range res.Query {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", c.D),
			c.System,
			fmt.Sprintf("%.0f", c.Throughput),
			fmt.Sprintf("%.1fus", float64(c.P99Ns)/1e3),
			fmt.Sprintf("%.2f", c.ViolationRate*100),
			fmt.Sprintf("%d", c.TrainWork),
		})
	}
	report.Table(w, []string{"D", "system", "q/s", "p99", "viol%", "train work"}, rows)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "interactive sessions — per-session budget met-rate vs drift intensity:")
	rows = rows[:0]
	for _, c := range res.Session {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", c.D),
			c.SUT,
			fmt.Sprintf("%d", c.Sessions),
			fmt.Sprintf("%.1f", c.MetRate*100),
			fmt.Sprintf("%d", c.LateOps),
			fmt.Sprintf("%.1fus", float64(c.MakespanP99Ns)/1e3),
		})
	}
	report.Table(w, []string{"D", "sut", "sessions", "met%", "late ops", "makespan p99"}, rows)
	fmt.Fprintln(w)
	csv("fig1g.csv", func(w io.Writer) {
		fmt.Fprintln(w, "panel,d,divergence,label,throughput,p99_ns,violation_rate,adjust_ns,train_work,sessions,met_rate,late_ops,makespan_p99_ns")
		for _, c := range res.Data {
			fmt.Fprintf(w, "data,%.2f,%.6f,%s,%.3f,%d,%.6f,%d,0,0,0,0,0\n",
				c.D, c.Divergence, c.SUT, c.Throughput, c.P99Ns, c.ViolationRate, c.AdjustmentNs)
		}
		for _, c := range res.Query {
			fmt.Fprintf(w, "query,%.2f,0,%s,%.3f,%d,%.6f,0,%d,0,0,0,0\n",
				c.D, c.System, c.Throughput, c.P99Ns, c.ViolationRate, c.TrainWork)
		}
		for _, c := range res.Session {
			fmt.Fprintf(w, "session,%.2f,0,%s,0,0,0,0,0,%d,%.6f,%d,%d\n",
				c.D, c.SUT, c.Sessions, c.MetRate, c.LateOps, c.MakespanP99Ns)
		}
	})
}
