// Package driver is the compatibility shim the repository benchmark's
// wire-rt workload calls: it presents Options.Workers closed-loop client
// streams as the single phase of a core.Scenario and runs it on the wall
// clock. The executor is core.Runner.RunOn; anything new that wants a
// real-time run (in process or over internal/netdriver) calls that with
// sim.NewReal() and a scenario of its own.
package driver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/sim"
	"repro/internal/workload"
)

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
// streams: one seed and one Sources call per client. Batch picks how many
// consecutive ops of one stream enter a round, i.e. how far a client runs
// ahead of its own results.
type Options struct {
	// Workers is the number of closed-loop clients sharing each round
	// (default 1). The SUT is never called concurrently.
	Workers int
	// Ops is the total operation count across workers: the first
	// Ops%Workers clients issue one op more than the others.
	Ops int
	// Seed derives per-worker generator streams.
	Seed uint64
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
	// share); the Spec's access distribution may then be nil. A source that
	// holds fewer ops than its worker's budget fails the run, as a short
	// phase source fails any run. Clients run closed loop and ignore the
	// source's inter-arrival gaps.
	Sources func(worker int) workload.Source
}

// client is one closed-loop client: its stream and how much of its op
// budget it has issued.
type client struct {
	src            workload.Source
	issued, budget int
}

// rounds presents the clients as one workload.Source whose Fill is a round.
type rounds struct {
	clients []client
	batch   int
}

// Name implements workload.Source.
func (r *rounds) Name() string { return fmt.Sprintf("rounds(%d clients)", len(r.clients)) }

// Reset implements workload.Source. The clients' streams were decided when
// the rounds were built; the phase seed changes nothing.
func (r *rounds) Reset(uint64) {}

// Fill implements workload.Source: in worker order, the next batch ops of
// every client with budget left. The runner asks for min(Workers×Batch,
// ops left) ops, which is what those shares add up to (budgets differ by at
// most one), so the position it passes is not needed; a client whose source
// comes up short makes the round short, which the runner reports.
func (r *rounds) Fill(ops []workload.Op, gaps []int64, _, _ int) int {
	n := 0
	for i := range r.clients {
		c := &r.clients[i]
		want := min(r.batch, c.budget-c.issued)
		if want == 0 {
			continue
		}
		got := c.src.Fill(ops[n:n+want], gaps[n:n+want], c.issued, c.budget)
		c.issued += got
		n += got
	}
	return n
}

// loaded is a SUT its caller has already loaded: the runner's initial Load
// must not reach it (an empty Load resets a remote SUT).
type loaded struct{ core.BatchSUT }

func (loaded) Load(_, _ []uint64) {}

// Run drives the SUT with Options.Ops operations from the workload spec,
// issued by Options.Workers closed-loop clients a round at a time (see
// Options), measuring real latencies. For one seed the op order is fixed.
func Run(sut core.SUT, spec workload.Spec, initial distgen.Generator, initialSize int, opts Options) (*core.Result, error) {
	if opts.Ops <= 0 {
		return nil, fmt.Errorf("driver: Ops must be positive")
	}
	if spec.Access == nil && opts.Sources == nil {
		return nil, fmt.Errorf("driver: workload needs an access distribution or Options.Sources")
	}
	workers := max(opts.Workers, 1)
	r := &rounds{clients: make([]client, workers), batch: max(opts.Batch, 1)}

	// Every client's budget and stream is settled before the clock starts.
	// Without explicit Sources a client's share is drawn here, one client
	// after the other, from its own generator over the spec and pinned, so
	// the timed region holds no generator and two runs of one seed issue the
	// same ops in the same order. The stream is closed-loop, so its all-zero
	// gaps are not kept.
	for w := range r.clients {
		c := &r.clients[w]
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
	}

	s := core.Scenario{
		Seed:       opts.Seed,
		IntervalNs: 100_000_000, // 100 ms of wall time
		SLANs:      opts.SLANs,
		Phases:     []core.Phase{{Ops: opts.Ops, Source: r}},
	}
	if initial != nil && initialSize > 0 {
		s.InitialData, s.InitialSize = initial, initialSize
	} else {
		s.InitialKeys = []uint64{}
		sut = loaded{core.AsBatch(sut)}
	}
	runner := core.Runner{Batch: min(workers*r.batch, opts.Ops)}
	return runner.RunOn(sim.NewReal(), s, sut)
}
