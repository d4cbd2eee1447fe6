// Package core is the benchmark framework itself — the paper's primary
// contribution, implemented: scenarios with drifting workloads and data,
// explicit training phases charged as first-class results, a deterministic
// single-server queueing runner over virtual time, and result objects that
// carry every metric family of Figure 1.
package core

import (
	"repro/internal/workload"
)

// OpResult reports what one operation did. Work is the SUT's abstract
// cost (comparisons, probes, rows touched); the runner's cost model turns
// it into service time under the virtual clock.
type OpResult struct {
	Found   bool
	Visited int
	Work    int64
	// Failed marks an operation that completed as an error (injected
	// fault, remote failure). Failed ops occupy the server for their Work
	// like any other op but are excluded from latency statistics and
	// counted separately — availability is a first-class result.
	Failed bool
}

// SUT is a key-value system under test. Implementations need not be safe
// for concurrent use — the runner serializes operations (single-server
// queue); the netdriver shards instead.
type SUT interface {
	// Name identifies the system in reports.
	Name() string
	// Load bulk-loads the initial database from sorted unique keys.
	Load(keys, values []uint64)
	// Do executes one operation.
	Do(op workload.Op) OpResult
}

// ValueFor derives the canonical load value for a key. Every engine that
// bulk-loads an initial database (the runner under either clock, tests)
// uses this one derivation so loaded contents are comparable across
// execution modes.
func ValueFor(k uint64) uint64 { return k ^ 0xDEADBEEF }

// LoadValues maps ValueFor over keys — the value slice matching an initial
// key set.
func LoadValues(keys []uint64) []uint64 {
	values := make([]uint64, len(keys))
	for i, k := range keys {
		values[i] = ValueFor(k)
	}
	return values
}

// TrainReport accounts one training phase (Lesson 3: training is a
// first-class result).
type TrainReport struct {
	// WorkUnits is the abstract training work performed.
	WorkUnits int64
	// Models is the model count after training.
	Models int
}

// Trainable is implemented by SUTs with an explicit (re)training step.
type Trainable interface {
	// Train (re)builds the SUT's models from its current contents.
	Train() TrainReport
}

// OnlineLearner is implemented by SUTs that also learn during execution;
// the runner collects their accumulated online-training work so the cost
// metrics can charge it (the paper: "measure the system metrics
// corresponding to the training overhead" for online learners).
type OnlineLearner interface {
	// OnlineTrainWork returns cumulative online training work units.
	OnlineTrainWork() int64
}
