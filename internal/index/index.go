// Package index defines the common interface implemented by every index
// structure under benchmark — the traditional baselines (B+ tree, hash) and
// the learned indexes (RMI, ALEX-style adaptive) — so the benchmark driver
// and the SUT adapters can treat them uniformly.
package index

// Ordered is a mutable ordered map from uint64 keys to uint64 values.
// Implementations need not be safe for concurrent use; the driver
// serializes access per SUT shard.
type Ordered interface {
	// Get returns the value for key and whether it is present.
	Get(key uint64) (uint64, bool)
	// Insert sets the value for key, replacing any existing value.
	Insert(key, value uint64)
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) bool
	// Scan returns how many entries with key >= lo a walk in ascending
	// key order visits before it reaches limit: min(limit, entries >= lo),
	// and 0 when limit < 1. It charges the counters such a walk charges
	// (its search for lo, and what the index prices per entry or block
	// visited), but counts in bulk rather than handing out the entries.
	Scan(lo uint64, limit int) int
	// Len returns the number of entries.
	Len() int
	// Name identifies the index implementation in reports.
	Name() string
}

// BulkLoader is implemented by indexes that can be built from sorted data
// much faster than by repeated inserts. keys must be strictly ascending and
// values parallel to keys.
type BulkLoader interface {
	// BulkLoad replaces the index contents from sorted key/value pairs.
	BulkLoad(keys, values []uint64)
}

// Trainable is implemented by learned indexes that have an explicit model
// (re)training step — the paper's Lesson 3 requires the benchmark to
// measure it as a first-class result.
type Trainable interface {
	// Retrain rebuilds the index's models from its current contents and
	// returns an abstract count of training work performed (model
	// updates), which the cost model converts into time and dollars.
	Retrain() int
	// ModelCount reports the number of fitted models currently in use.
	ModelCount() int
}

// Stats captures per-operation counters useful for explaining *why* an
// index is fast or slow on a distribution (e.g. last-mile search length for
// learned indexes, node splits for trees).
type Stats struct {
	Searches    uint64 // point lookups served
	Compares    uint64 // key comparisons performed
	ModelErrSum uint64 // total |predicted - actual| positions (learned only)
	Splits      uint64 // structural modifications (splits/retrains)
	// TrainWork counts online model-building work performed inside
	// regular operations — entries touched by automatic delta merges,
	// node rebuilds, and splits. The benchmark charges it as both
	// service time (the op that triggered it stalls) and training
	// overhead (the paper's online-learning cost accounting).
	TrainWork uint64
}

// Instrumented exposes internal counters. A disk-backed index's page I/O is
// its buffer pool's to count, not these.
type Instrumented interface {
	Stats() Stats
	// LiveStats returns the counters in place, for a reader that samples
	// them at every op boundary: Stats copies them through the interface.
	LiveStats() *Stats
}

// Counters is the Stats an index keeps in St. An index that embeds it is
// Instrumented.
type Counters struct{ St Stats }

// Stats implements Instrumented.
func (c *Counters) Stats() Stats { return c.St }

// LiveStats implements Instrumented.
func (c *Counters) LiveStats() *Stats { return &c.St }
