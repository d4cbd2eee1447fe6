package core

import (
	"repro/internal/workload"
)

// BatchSUT executes a slice of operations in one call, writing each
// operation's result to the matching slot of out (len(out) must be >=
// len(ops)). A batch is a unit of transport, never of meaning: DoBatch is
// calling Do per op in order — the same OpResult stream, the same final
// contents, the same counters — so engines may dispatch in batches of any
// size without changing results, and nothing may reorder (a lookup on a
// disk-backed SUT moves buffer-pool state, so execution order is part of
// the result).
//
// The rule: adapters implement Do, the one place that says what an op does
// and costs. DoBatch exists on netdriver.Client, where a batch is one wire
// round trip, and on the pass-through fault.SUT, which must not break such
// a batch up — and nowhere else; every in-process SUT gets the loop below
// from AsBatch. What batching buys in process is one dispatch, and one pair
// of clock reads, per round on the wall clock.
type BatchSUT interface {
	SUT
	// DoBatch executes ops[i] and stores its result in out[i].
	DoBatch(ops []workload.Op, out []OpResult)
}

// AsBatch returns s itself when a batch is a different unit of transport
// for it (it implements BatchSUT), else s behind the one in-process batch
// loop. Engines call it once per run and then use a single batched code
// path.
func AsBatch(s SUT) BatchSUT {
	if b, ok := s.(BatchSUT); ok {
		return b
	}
	return seqBatch{s}
}

// seqBatch is the in-process batch: Do per op, in order.
type seqBatch struct{ SUT }

// DoBatch implements BatchSUT.
func (b seqBatch) DoBatch(ops []workload.Op, out []OpResult) {
	for i, op := range ops {
		out[i] = b.Do(op)
	}
}

// OpOutcomes tallies what a run's operations did: how many found their
// key, how many lookups (Gets and Deletes) missed, and the total abstract
// work the SUT reported. It does not depend on the clock, so a wall-clock
// run can be checked against the virtual run of the same workload.
type OpOutcomes struct {
	// Found counts operations whose OpResult.Found was true.
	Found int64
	// NotFound counts Get and Delete operations that missed.
	NotFound int64
	// WorkUnits is the sum of OpResult.Work across all operations.
	WorkUnits int64
	// Failed counts operations that completed as errors.
	Failed int64
}

// Observe folds one operation's result into the tally.
func (o *OpOutcomes) Observe(op workload.Op, r OpResult) {
	if r.Failed {
		o.Failed++
		o.WorkUnits += r.Work
		return
	}
	if r.Found {
		o.Found++
	} else if op.Type == workload.Get || op.Type == workload.Delete {
		o.NotFound++
	}
	o.WorkUnits += r.Work
}
