package core

import (
	"fmt"
	"sync"

	"repro/internal/distgen"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runScratch holds one run's dispatch buffers. Runs borrow it from
// runScratchPool so repeated Run calls and concurrent RunAll workers reuse
// the same arenas instead of reallocating per run; nothing in it escapes
// into the Result (per-op outputs are copied out as they are priced).
type runScratch struct {
	ops  []workload.Op
	gaps []int64
	outs []OpResult
	done []int64 // a batch's completion times, as priced or measured
	lat  []int64 // and latencies
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// ensure sizes the buffers for the given batch width, reusing capacity.
func (sc *runScratch) ensure(batch int) {
	if cap(sc.ops) < batch {
		sc.ops = make([]workload.Op, batch)
		sc.gaps = make([]int64, batch)
		sc.outs = make([]OpResult, batch)
		sc.done = make([]int64, batch)
		sc.lat = make([]int64, batch)
	}
	sc.ops = sc.ops[:batch]
	sc.gaps = sc.gaps[:batch]
	sc.outs = sc.outs[:batch]
	sc.done = sc.done[:batch]
	sc.lat = sc.lat[:batch]
}

// PhaseResult carries the per-phase measurements that back Figure 1a: one
// phase is one workload/data situation, summarized by descriptive
// throughput statistics rather than a single average.
type PhaseResult struct {
	Name string
	// StartNs/EndNs are the run clock's times bounding the phase.
	StartNs, EndNs int64
	Completed      int64
	// Failed counts operations that completed as errors (injected faults);
	// they occupy the server but are excluded from Completed and Latency.
	Failed  int64
	Latency *metrics.Histogram
	// RetrainWork is the training work charged by a RetrainBefore window.
	RetrainWork int64
}

// Throughput returns the phase's average throughput in ops/second.
func (p PhaseResult) Throughput() float64 {
	d := p.EndNs - p.StartNs
	if d <= 0 {
		return 0
	}
	return float64(p.Completed) / (float64(d) / 1e9)
}

// Result is the full outcome of one run against one SUT, carrying every
// metric family of Figure 1. The one executor, Runner.RunOn, returns it under
// either clock and for KV and query SUTs alike, so one report layer serves
// them all; a run leaves zero what it has no notion of.
type Result struct {
	Scenario string
	SUT      string

	// Snapshot is the shared measurement core (the per-interval table
	// behind Fig 1a's throughput and Fig 1c's SLA bands, Fig 1b's
	// cumulative curve, the overall latency histogram) plus the SLA
	// threshold and the operation counts, produced by the one
	// metrics.Collector pipeline every engine uses.
	metrics.Snapshot

	// Per-phase breakdown.
	Phases []PhaseResult
	// PhaseStarts are the run clock's times each phase began — the
	// "distribution change" instants for adaptation metrics.
	PhaseStarts []int64

	// Outcomes tallies found/not-found lookups and total SUT work, for
	// checking a run on one clock against the same workload on the other.
	Outcomes OpOutcomes

	// Lesson 3: training accounting.
	OfflineTrainWork int64
	OnlineTrainWork  int64
	// Models is the model count reported by the most recent training step;
	// MaxModels is the largest count any training step reported. Retrains
	// counts the scheduled RetrainBefore windows that actually trained, so
	// multi-phase scenarios keep their full training history.
	Models    int
	MaxModels int
	Retrains  int

	// Storage summarizes buffer-pool work (hits, misses, page I/O,
	// fsyncs) for disk-backed SUTs; nil for in-memory structures.
	Storage *StorageStats

	// Total duration on the run's clock (ns), from the end of the initial
	// load to the last completion.
	DurationNs int64
}

// recordModels folds one training report's model count into the result:
// Models tracks the latest count, MaxModels the peak across all training
// steps of the run.
func (r *Result) recordModels(models int) {
	r.Models = models
	if models > r.MaxModels {
		r.MaxModels = models
	}
}

// Throughput returns the run's overall average throughput (ops/sec).
func (r *Result) Throughput() float64 {
	if r.DurationNs <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.DurationNs) / 1e9)
}

// Runner executes scenarios against SUTs: Run on a fresh virtual clock,
// RunOn on the clock it is handed.
type Runner struct {
	Cost sim.CostModel
	// PostChangeN is how many successful operations after each phase
	// change feed the adjustment-speed metric (Result.AdjustmentNs).
	// NewRunner sets 1000; a zero-value Runner keeps no window, so every
	// change reports 0.
	PostChangeN int
	// Parallel bounds how many SUT runs RunAll executes concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 runs serially. Results are
	// returned in factory order and, because RunAll materializes every
	// stateful input first, are bit-identical at any setting.
	Parallel int
	// Batch is the op-dispatch batch size: up to Batch operations are
	// generated ahead and executed in one AsBatch(sut).DoBatch call before
	// their completions are priced on the virtual clock. 0 or 1 dispatches
	// one op at a time. Because op generation never depends on execution
	// results and a batch is Do per op in issue order, results are
	// byte-identical at every batch size, except under middleware that
	// reads the clock: a fault.Injector sees one reading per batch, so a
	// window that opens or closes mid-run makes results identical per
	// (plan, seed, batch) only.
	Batch int
	// WrapSUT, when set, wraps the SUT once the run's clock is known but
	// before the initial load — the injection point for
	// middleware that needs the run's own clock (fault.Wrap). A wrapper
	// returning its argument unchanged leaves the run untouched.
	WrapSUT func(sut SUT, clock sim.Clock) SUT
}

// NewRunner returns a runner with the default cost model.
func NewRunner() *Runner {
	return &Runner{Cost: sim.DefaultCostModel(), PostChangeN: 1000}
}

// Run executes the scenario against the SUT on a fresh virtual clock and
// returns the full result.
func (r *Runner) Run(s Scenario, sut SUT) (*Result, error) {
	return r.RunOn(&sim.Virtual{}, s, sut)
}

// RunOn is the one dispatch loop under both clocks. On a *sim.Virtual a
// completion is priced: the single-server queue over the source's gaps and
// Cost.ServiceTime, bit-identical at any Batch. On any other clock it is
// measured: the clock is read before and after each dispatch, every op of
// the dispatch arrives at the first reading and completes at the second (the
// round is the unit of service), the loop is closed and the source's gaps
// are not paced, and training takes the time it takes. Either way every time
// in the Result counts from the end of the initial load — a *sim.Real is
// restarted there, so middleware holding the clock (a fault.Injector) opens
// its windows at the same instant the result's times start from.
func (r *Runner) RunOn(clock sim.Clock, s Scenario, sut SUT) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// virt is nil on a wall clock: completions are measured, not priced.
	virt, _ := clock.(*sim.Virtual)
	pool := PoolOf(sut) // before wrapping: middleware hides the accessor
	if r.WrapSUT != nil {
		sut = r.WrapSUT(sut, clock)
	}

	// Load the initial database (pinned keys when materialized, so
	// compared SUTs see identical data).
	keys := s.InitialKeys
	if keys == nil {
		keys = distgen.UniqueKeys(s.InitialData, s.InitialSize)
	}
	sut.Load(keys, LoadValues(keys))
	// The online-work baseline is bookkeeping, so it is read before a wall
	// clock restarts: for a remote SUT it is a round trip.
	onlineBase := int64(0)
	if ol, ok := sut.(OnlineLearner); ok {
		onlineBase = ol.OnlineTrainWork()
	}
	if real, ok := clock.(*sim.Real); ok {
		*real = *sim.NewReal() // restart in place: every holder of the clock sees the new epoch
	}

	res := &Result{Scenario: s.Name, SUT: sut.Name()}

	// Offline training phase (charged, not hidden — Lesson 3).
	if s.TrainBefore {
		if tr, ok := sut.(Trainable); ok {
			rep := tr.Train()
			res.OfflineTrainWork += rep.WorkUnits
			res.recordModels(rep.Models)
			clock.Advance(r.Cost.TrainTime(rep.WorkUnits))
		}
	}

	// One measurement pipeline for the whole run. SLA: fixed by the
	// scenario, else calibrated deterministically from the first phase's
	// first (up to) CalibrateAfter latencies — the paper's rule of deriving
	// the threshold from baseline latency statistics on the same workload.
	colCfg := metrics.CollectorConfig{
		IntervalNs:     s.interval(),
		PostChangeN:    r.PostChangeN,
		SLANs:          s.SLANs,
		CalibrateAfter: s.CalibrateAfter,
	}
	for _, phase := range s.Phases {
		colCfg.Ops += phase.Ops
	}
	if s.Session != nil {
		colCfg.SessionBudgetNs = s.Session.BudgetNs
	}
	col := metrics.NewCollector(colCfg)

	batch := r.Batch
	if batch < 1 {
		batch = 1
	}
	bsut := AsBatch(sut)
	scratch := runScratchPool.Get().(*runScratch)
	scratch.ensure(batch)
	defer runScratchPool.Put(scratch)
	ops, gaps, outs, dones, lats := scratch.ops, scratch.gaps, scratch.outs, scratch.done, scratch.lat

	// Session segmentation state: the very first op always opens a
	// session; afterwards a gap at or above the spec's boundary does.
	sessionStarted := false

	for pi, phase := range s.Phases {
		pres := PhaseResult{Name: phase.Name, StartNs: clock.Now(), Latency: col.BeginPhase()}
		res.PhaseStarts = append(res.PhaseStarts, pres.StartNs)

		if phase.RetrainBefore {
			if tr, ok := sut.(Trainable); ok {
				rep := tr.Train()
				// Adapters report an empty TrainReport for SUTs with
				// nothing to train; only real training counts as a
				// retrain window.
				if rep.WorkUnits > 0 || rep.Models > 0 {
					pres.RetrainWork = rep.WorkUnits
					res.OfflineTrainWork += rep.WorkUnits
					res.Retrains++
					res.recordModels(rep.Models)
					clock.Advance(r.Cost.TrainTime(rep.WorkUnits))
				}
			}
		}

		src := phase.source(workload.PhaseSeed(s.Seed, pi))

		// Single-server queue in virtual time. Operations are generated
		// and dispatched in batches; generation draws (op stream, arrival
		// gaps) never depend on execution results, so the queue math below
		// prices the identical completion sequence at any batch size.
		prevArrival := clock.Now()
		serverFree := clock.Now()

		for i := 0; i < phase.Ops; i += batch {
			bn := batch
			if rest := phase.Ops - i; bn > rest {
				bn = rest
			}
			if n := src.Fill(ops[:bn], gaps[:bn], i, phase.Ops); n != bn {
				return nil, fmt.Errorf("core: scenario %q phase %d: source %s exhausted at op %d of %d",
					s.Name, pi, src.Name(), i+n, phase.Ops)
			}
			t0 := clock.Now()
			bsut.DoBatch(ops[:bn], outs[:bn])
			t1 := clock.Now()
			// Price the batch; its successes reach the collector as runs that a
			// failure or a session boundary ends. Completions are non-decreasing
			// and nothing reads the clock before the next DoBatch, so a virtual
			// clock advances once, to the batch's last.
			run := 0
			for j := 0; j < bn; j++ {
				var arrive int64
				if gaps[j] == 0 {
					// Closed loop: arrive when the server frees up.
					arrive = serverFree
				} else {
					arrive = prevArrival + gaps[j]
				}
				prevArrival = arrive
				done := max(arrive, serverFree) + r.Cost.ServiceTime(outs[j].Work)
				if virt == nil {
					arrive, done = t0, t1
				}
				serverFree = done
				res.Outcomes.Observe(ops[j], outs[j])
				if s.Session != nil && (!sessionStarted || gaps[j] >= s.Session.GapNs) {
					col.RecordBatch(dones[run:j], lats[run:j])
					run = j
					col.BeginSession(arrive)
					sessionStarted = true
				}
				if outs[j].Failed {
					// Failed ops hold the server for their work but
					// produce no latency sample: an error is not a fast
					// success, it is burned availability.
					col.RecordBatch(dones[run:j], lats[run:j])
					run = j + 1
					col.RecordFailed(done)
					pres.Failed++
					continue
				}
				dones[j], lats[j] = done, done-arrive
				pres.Completed++
			}
			col.RecordBatch(dones[run:bn], lats[run:bn])
			if virt != nil {
				virt.AdvanceTo(serverFree)
			}
		}
		pres.EndNs = clock.Now()
		res.Phases = append(res.Phases, pres)
	}

	res.DurationNs = clock.Now() // before Snapshot: post-processing is not part of the run
	res.Snapshot = col.Snapshot()
	if ol, ok := sut.(OnlineLearner); ok {
		res.OnlineTrainWork = ol.OnlineTrainWork() - onlineBase
	}
	if pool != nil {
		res.Storage = &StorageStats{Knobs: pool.Knobs(), Counters: pool.Counters()}
	}
	return res, nil
}

// RunAll executes the scenario against multiple SUT factories, returning
// results in factory order. A factory builds a fresh SUT so runs are
// independent; the initial database and every phase's operation/arrival
// stream are materialized once so every SUT replays identical inputs
// (fair head-to-head comparison). Because each run is then a pure
// function of the pinned scenario and its own SUT, RunAll fans the runs
// out across Runner.Parallel workers without changing any result bit.
func (r *Runner) RunAll(s Scenario, factories []func() SUT) ([]*Result, error) {
	s = s.Materialize()
	out := make([]*Result, len(factories))
	err := par.ForEach(len(factories), r.Parallel, func(i int) error {
		res, err := r.Run(s, factories[i]())
		if err != nil {
			return fmt.Errorf("core: running %s: %w", s.Name, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
