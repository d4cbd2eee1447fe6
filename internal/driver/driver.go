// Package driver executes workloads against a SUT in *real time* with
// concurrent workers — the counterpart of the virtual-clock runner in
// internal/core. The figure experiments use virtual time for determinism;
// this driver exists for wall-clock validation (the calibration
// micro-benches), for the network mode (internal/netdriver), and for
// users who want to benchmark their own real systems.
package driver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// sample is one completed operation: its completion offset from run start
// and its latency, both in nanoseconds. failed marks operations that
// completed as errors (OpResult.Failed) — they feed the failure series
// instead of the latency structures.
type sample struct {
	done, latency int64
	failed        bool
}

// Options configures a real-time run.
type Options struct {
	// Workers is the number of concurrent client goroutines (default 1).
	Workers int
	// Ops is the total operation count across workers.
	Ops int
	// Seed derives per-worker generator streams.
	Seed uint64
	// IntervalNs is the reporting interval (default 100ms wall time).
	IntervalNs int64
	// SLANs fixes the SLA threshold; 0 calibrates from the first 1000
	// completions (20x median).
	SLANs int64
	// Batch is the dispatch batch size per worker: up to Batch operations
	// are generated ahead and executed in one BatchSUT call under a
	// single lock acquisition (and, for remote SUTs, one wire round
	// trip). 0 or 1 dispatches one op at a time. Batched completions
	// share the batch's timestamps: each op in a batch reports the
	// batch's wall latency, since the batch is the unit of service.
	Batch int
	// Sources, when set, supplies each worker's operation stream (trace
	// replay, synthesized load, …) instead of the worker's share of the
	// Spec drawn and pinned before the run starts (worker w's stream is
	// workload.NewSource(spec, nil, workload.PhaseSeed(Seed, w))'s first
	// share); the Spec's access distribution may then be nil. A bounded
	// source that drains before the worker's op budget simply ends that
	// worker's stream early. Workers run in real time and ignore the
	// source's inter-arrival gaps.
	Sources func(worker int) workload.Source
	// TraceSink, when set, records each worker's issued stream into the
	// writer as one trace phase (phase index = worker id), written after
	// the run completes so recording never perturbs the measured timing.
	// This is the one executor that records after the fact, because it is
	// the one whose input can be a caller's opaque Sources: those are known
	// only as they are issued. Replay by handing phase readers back:
	// Sources: func(w int) workload.Source { return trace.PhaseReader(w) }.
	TraceSink *workload.TraceWriter
}

// Result is core.Result: the real-time run fills the shared
// metrics.Snapshot, DurationNs and Outcomes with wall-clock measurements
// and leaves the virtual runner's training and per-phase fields zero, so
// one report layer serves both clocks.
type Result = core.Result

// lockedSUT serializes access to a non-thread-safe SUT. Contention is part
// of the measured behaviour, as it would be on a single-writer engine;
// batched dispatch amortizes the lock over Options.Batch operations.
type lockedSUT struct {
	mu    sync.Mutex
	batch core.BatchSUT
}

func (l *lockedSUT) doBatch(ops []workload.Op, out []core.OpResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batch.DoBatch(ops, out)
}

// workerOut is one worker's contribution: samples in completion order plus
// its op-outcome tallies (and, when recording, the issued stream).
type workerOut struct {
	samples  []sample
	outcomes core.OpOutcomes
	recOps   []workload.Op
	recGaps  []int64
}

// Run drives the SUT with Options.Workers concurrent workers issuing
// Options.Ops operations from the workload spec, measuring real latencies.
func Run(sut core.SUT, spec workload.Spec, initial distgen.Generator, initialSize int, opts Options) (*Result, error) {
	if opts.Ops <= 0 {
		return nil, fmt.Errorf("driver: Ops must be positive")
	}
	if spec.Access == nil && opts.Sources == nil {
		return nil, fmt.Errorf("driver: workload needs an access distribution or Options.Sources")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	interval := opts.IntervalNs
	if interval <= 0 {
		interval = 100 * time.Millisecond.Nanoseconds()
	}
	batch := opts.Batch
	if batch < 1 {
		batch = 1
	}

	if initialSize > 0 && initial != nil {
		keys := distgen.UniqueKeys(initial, initialSize)
		sut.Load(keys, core.LoadValues(keys))
	}

	locked := &lockedSUT{batch: core.AsBatch(sut)}

	// share is worker w's op budget: the first Ops%workers take one more.
	share := func(w int) int {
		if w < opts.Ops%workers {
			return opts.Ops/workers + 1
		}
		return opts.Ops / workers
	}

	// Randomness is consumed before the clock starts. Without explicit
	// Sources each worker's share is drawn here, one worker after the other,
	// from its own generator over the spec and pinned: the timed region
	// below then holds no generator, the spec's stateful key sources are
	// never shared between running workers (so they need no lock), and two
	// runs of one seed hand every worker the same stream. The stream is
	// closed-loop, so its all-zero gaps are not kept.
	if opts.Sources == nil {
		pinned := make([]workload.Source, workers)
		for w := range pinned {
			src := workload.NewSource(spec, nil, workload.PhaseSeed(opts.Seed, w))
			ops, gaps := make([]workload.Op, share(w)), make([]int64, share(w))
			src.Fill(ops, gaps, 0, len(ops))
			pinned[w] = workload.NewTraceReader(src.Name(), ops, nil)
		}
		opts.Sources = func(w int) workload.Source { return pinned[w] }
	}

	outs := make([]workerOut, workers)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id, n int) {
			defer wg.Done()
			src := opts.Sources(id)
			out := workerOut{samples: make([]sample, 0, n)}
			ops := make([]workload.Op, batch)
			gaps := make([]int64, batch)
			res := make([]core.OpResult, batch)
			if opts.TraceSink != nil {
				out.recOps = make([]workload.Op, 0, n)
				out.recGaps = make([]int64, 0, n)
			}
			for i := 0; i < n; i += batch {
				bn := batch
				if rest := n - i; bn > rest {
					bn = rest
				}
				fn := src.Fill(ops[:bn], gaps[:bn], i, n)
				if fn == 0 {
					break // bounded source drained
				}
				if opts.TraceSink != nil {
					out.recOps = append(out.recOps, ops[:fn]...)
					out.recGaps = append(out.recGaps, gaps[:fn]...)
				}
				t0 := time.Now()
				locked.doBatch(ops[:fn], res[:fn])
				t1 := time.Now()
				s := sample{
					done:    t1.Sub(start).Nanoseconds(),
					latency: t1.Sub(t0).Nanoseconds(),
				}
				for j := 0; j < fn; j++ {
					s.failed = res[j].Failed
					out.samples = append(out.samples, s)
					out.outcomes.Observe(ops[j], res[j])
				}
				if fn < bn {
					break // bounded source drained mid-batch
				}
			}
			outs[id] = out
		}(w, share(w))
	}
	wg.Wait()
	// The measured run ends when the last worker finishes; merging and
	// histogram post-processing below are not part of the workload and
	// must not deflate Throughput().
	duration := time.Since(start).Nanoseconds()

	// Recording is written only now, one phase per worker in worker
	// order, so the trace layout is deterministic even though workers
	// raced in real time.
	if opts.TraceSink != nil {
		for id, o := range outs {
			opts.TraceSink.BeginPhase(id, fmt.Sprintf("worker-%d", id), len(o.recOps))
			opts.TraceSink.Append(o.recOps, o.recGaps)
		}
	}

	// Merge worker samples into completion order. Each worker's slice is
	// already sorted by done (appended as its ops complete), so a k-way
	// merge suffices — no O(n log n) global sort.
	parts := make([][]sample, workers)
	outcomes := core.OpOutcomes{}
	for i, o := range outs {
		parts[i] = o.samples
		outcomes.Found += o.outcomes.Found
		outcomes.NotFound += o.outcomes.NotFound
		outcomes.WorkUnits += o.outcomes.WorkUnits
		outcomes.Failed += o.outcomes.Failed
	}
	all := mergeSamples(parts)

	col := metrics.NewCollector(metrics.CollectorConfig{
		IntervalNs: interval,
		SLANs:      opts.SLANs,
		Ops:        len(all),
	})
	for _, s := range all {
		if s.failed {
			col.RecordFailed(s.done)
			continue
		}
		col.Record(s.done, s.latency)
	}
	return &Result{
		SUT:        sut.Name(),
		Snapshot:   col.Snapshot(),
		DurationNs: duration,
		Outcomes:   outcomes,
	}, nil
}
