// Package driver executes workloads against a SUT in *real time* — the
// counterpart of the virtual-clock runner in internal/core. One goroutine
// multiplexes Options.Workers closed-loop clients onto the one SUT, a round
// at a time. The figure experiments use virtual time for determinism; this
// driver exists for wall-clock validation (the calibration micro-benches),
// for the network mode (internal/netdriver), and for users who want to
// benchmark their own real systems.
package driver

import (
	"fmt"
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
//
// The run proceeds in rounds. A round takes, in worker order, the next Batch
// ops of every client that still has budget — up to Workers × Batch ops —
// and hands them to the SUT in one dispatch: one BatchSUT call and, for a
// remote SUT, one wire round trip. The round is the unit of service: every
// op in it completes when the dispatch returns and reports the round's wall
// latency, so a client's latency includes the service of the ops it shared
// the round with, as it would behind any single-threaded engine. Workers and
// Batch both stay because they choose different things. Workers picks the
// streams: one seed, one Sources call and one trace phase per client. Batch
// picks how many consecutive ops of one stream enter a round, i.e. how far
// a client runs ahead of its own results.
type Options struct {
	// Workers is the number of closed-loop clients sharing each round
	// (default 1). The SUT is never called concurrently.
	Workers int
	// Ops is the total operation count across workers: the first
	// Ops%Workers clients issue one op more than the others.
	Ops int
	// Seed derives per-worker generator streams.
	Seed uint64
	// IntervalNs is the reporting interval (default 100ms wall time).
	IntervalNs int64
	// SLANs fixes the SLA threshold; 0 calibrates from the first 1000
	// completions (20x median).
	SLANs int64
	// Batch is how many consecutive ops each client contributes to a round
	// (0 or 1: one op). At Workers 1 a round is a plain Fill/DoBatch loop
	// over the one stream.
	Batch int
	// Sources, when set, supplies each worker's operation stream (trace
	// replay, synthesized load, …) instead of the worker's share of the
	// Spec drawn and pinned before the run starts (worker w's stream is
	// workload.NewSource(spec, nil, workload.PhaseSeed(Seed, w))'s first
	// share); the Spec's access distribution may then be nil. A bounded
	// source that drains before the worker's op budget ends that worker's
	// stream after the round its short Fill went into. Clients run closed
	// loop and ignore the source's inter-arrival gaps.
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

// client is one closed-loop client: its stream, how much of its op budget
// it has issued and, when recording, what it issued.
type client struct {
	src            workload.Source
	issued, budget int
	recOps         []workload.Op
	recGaps        []int64
}

// Run drives the SUT with Options.Ops operations from the workload spec,
// issued by Options.Workers closed-loop clients a round at a time (see
// Options), measuring real latencies. For one seed the op order is fixed.
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
	bsut := core.AsBatch(sut)

	// Everything but the dispatches happens before the clock starts: each
	// client's budget, stream and recording buffers, and the round's buffers.
	// Without explicit Sources a client's share is drawn here, one client
	// after the other, from its own generator over the spec and pinned, so
	// the timed region holds no generator and two runs of one seed issue the
	// same ops in the same order. The stream is closed-loop, so its all-zero
	// gaps are not kept.
	clients := make([]client, workers)
	live := make([]*client, 0, workers) // still issuing, in worker order
	for w := range clients {
		c := &clients[w]
		c.budget = opts.Ops / workers
		if w < opts.Ops%workers {
			c.budget++
		}
		if opts.Sources != nil {
			c.src = opts.Sources(w)
		} else {
			src := workload.NewSource(spec, nil, workload.PhaseSeed(opts.Seed, w))
			ops, gaps := make([]workload.Op, c.budget), make([]int64, c.budget)
			src.Fill(ops, gaps, 0, len(ops))
			c.src = workload.NewTraceReader(src.Name(), ops, nil)
		}
		if opts.TraceSink != nil {
			c.recOps = make([]workload.Op, 0, c.budget)
			c.recGaps = make([]int64, 0, c.budget)
		}
		if c.budget > 0 {
			live = append(live, c)
		}
	}
	round := min(workers*batch, opts.Ops)
	ops, gaps, res := make([]workload.Op, round), make([]int64, round), make([]core.OpResult, round)
	samples := make([]sample, 0, opts.Ops)
	var outcomes core.OpOutcomes

	start := time.Now()
	for len(live) > 0 {
		// Fill the round; a client whose budget is spent or whose source ran
		// short does not come back for the next one.
		n, still := 0, live[:0]
		for _, c := range live {
			want := min(batch, c.budget-c.issued)
			got := c.src.Fill(ops[n:n+want], gaps[n:n+want], c.issued, c.budget)
			if opts.TraceSink != nil {
				c.recOps = append(c.recOps, ops[n:n+got]...)
				c.recGaps = append(c.recGaps, gaps[n:n+got]...)
			}
			c.issued += got
			n += got
			if got == want && c.issued < c.budget {
				still = append(still, c)
			}
		}
		live = still
		if n == 0 {
			break // every remaining source was already drained
		}
		t0 := time.Now()
		bsut.DoBatch(ops[:n], res[:n])
		t1 := time.Now()
		s := sample{
			done:    t1.Sub(start).Nanoseconds(),
			latency: t1.Sub(t0).Nanoseconds(),
		}
		for j := 0; j < n; j++ {
			s.failed = res[j].Failed
			samples = append(samples, s)
			outcomes.Observe(ops[j], res[j])
		}
	}
	// The measured run ends with the last round; recording and histogram
	// post-processing below are not part of the workload and must not
	// deflate Throughput().
	duration := time.Since(start).Nanoseconds()

	if opts.TraceSink != nil {
		for w, c := range clients {
			opts.TraceSink.BeginPhase(w, fmt.Sprintf("worker-%d", w), len(c.recOps))
			opts.TraceSink.Append(c.recOps, c.recGaps)
		}
	}

	col := metrics.NewCollector(metrics.CollectorConfig{
		IntervalNs: interval,
		SLANs:      opts.SLANs,
		Ops:        len(samples),
	})
	for _, s := range samples {
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
