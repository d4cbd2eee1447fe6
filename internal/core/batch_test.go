package core

import (
	"testing"

	"repro/internal/pager"
	"repro/internal/stats"
	"repro/internal/workload"
)

// randomOps builds a deterministic mixed op sequence: point lookups
// (present and absent keys), inserts, deletes, and scans over a bounded
// key universe. It opens with the same lookup twice, so the first slot's
// extra work over the second is exactly what Load/Train left pending.
func randomOps(seed uint64, n int, universe uint64) []workload.Op {
	rng := stats.NewRNG(seed)
	ops := make([]workload.Op, n)
	ops[0] = workload.Op{Type: workload.Get, Key: universe - 2}
	ops[1] = ops[0]
	for i := 2; i < n; i++ {
		r := rng.Float64()
		key := rng.Uint64() % universe
		switch {
		case r < 0.70:
			ops[i] = workload.Op{Type: workload.Get, Key: key}
		case r < 0.85:
			ops[i] = workload.Op{Type: workload.Put, Key: key, Value: rng.Uint64()}
		case r < 0.95:
			ops[i] = workload.Op{Type: workload.Delete, Key: key}
		default:
			ops[i] = workload.Op{Type: workload.Scan, Key: key, ScanLimit: 50}
		}
	}
	return ops
}

// loadedSUT builds a SUT preloaded with every even key below universe and
// trained when it can be, then probes the structure behind the adapter's
// back: with whatever the load and the training counted, that leaves
// counter advances no op has been charged for.
func loadedSUT(f func() SUT, universe uint64) SUT {
	keys := make([]uint64, 0, universe/2)
	for k := uint64(0); k < universe; k += 2 {
		keys = append(keys, k)
	}
	s := f()
	s.Load(keys, LoadValues(keys))
	if tr, ok := s.(Trainable); ok {
		tr.Train()
	}
	switch u := s.(type) {
	case *IndexSUT:
		u.Underlying().Get(universe / 2)
	case *KVSUT:
		u.Store().Get(universe / 2)
	}
	return s
}

// plainSUT hides a SUT's native DoBatch so AsBatch takes the sequential
// fallback adapter.
type plainSUT struct{ SUT }

// TestBatchSequentialEquivalence is the BatchSUT contract check: DoBatch
// dispatches in issue order, so randomized op sequences cut into batches
// of any size must produce the identical OpResult stream and the identical
// final contents as sequential Do. The disk B+ tree runs under a pool far
// smaller than its data, where any reordering of lookups changes which
// pages are resident and so what later ops cost. (The disk LSM is pinned
// one layer up, by TestBatchSizeInvariance: its Do also syncs after the
// flushes of a Load, which DoBatch's pending flush absorbs, so it has no
// per-op sequential reference.)
func TestBatchSequentialEquivalence(t *testing.T) {
	const universe = 4096
	factories := map[string]func() SUT{
		"btree":   NewBTreeSUT,
		"hash":    NewHashSUT,
		"rmi":     NewRMISUT,
		"alex":    NewALEXSUT,
		"kvstore": NewKVSUTDefault,
		"disk-btree": func() SUT {
			return NewDiskBTreeSUT(pager.PoolKnobs{Pages: 4, Policy: "lru"})
		},
		// The fallback adapter must satisfy the same contract.
		"fallback": func() SUT { return plainSUT{NewBTreeSUT()} },
	}
	batchSizes := []int{1, 2, 3, 7, 16, 64, 257}
	for name, f := range factories {
		f := f
		t.Run(name, func(t *testing.T) {
			ops := randomOps(11, 3000, universe)
			seq := loadedSUT(f, universe)
			want := make([]OpResult, len(ops))
			for i, op := range ops {
				want[i] = seq.Do(op)
			}
			// Pending work lands in the first slot: the repeat of the same
			// lookup costs less. (The fallback's adapter is hidden from
			// loadedSUT, so nothing is pending there.)
			if name != "fallback" && want[0].Work <= want[1].Work {
				t.Fatalf("no pending load/train work in slot 0: work %d, repeat %d", want[0].Work, want[1].Work)
			}
			for _, bs := range batchSizes {
				bat := AsBatch(loadedSUT(f, universe))
				got := make([]OpResult, len(ops))
				for i := 0; i < len(ops); i += bs {
					end := i + bs
					if end > len(ops) {
						end = len(ops)
					}
					bat.DoBatch(ops[i:end], got[i:end])
				}
				for i := range ops {
					if got[i] != want[i] {
						t.Fatalf("batch=%d op %d (%v): got %+v, want %+v",
							bs, i, ops[i], got[i], want[i])
					}
				}
				// Final contents: probe the whole universe through the
				// SUT interface on both instances.
				for k := uint64(0); k < universe; k++ {
					a := seq.Do(workload.Op{Type: workload.Get, Key: k})
					b := bat.Do(workload.Op{Type: workload.Get, Key: k})
					if a.Found != b.Found {
						t.Fatalf("batch=%d key %d: sequential Found=%v, batched Found=%v",
							bs, k, a.Found, b.Found)
					}
				}
			}
		})
	}
}

// TestOpOutcomesObserve pins the tally semantics: Found counts hits of any
// op type, NotFound counts only missed lookups (Get/Delete), and WorkUnits
// sums everything.
func TestOpOutcomesObserve(t *testing.T) {
	var o OpOutcomes
	o.Observe(workload.Op{Type: workload.Get}, OpResult{Found: true, Work: 3})
	o.Observe(workload.Op{Type: workload.Get}, OpResult{Found: false, Work: 2})
	o.Observe(workload.Op{Type: workload.Delete}, OpResult{Found: false, Work: 1})
	o.Observe(workload.Op{Type: workload.Put}, OpResult{Found: false, Work: 4})
	o.Observe(workload.Op{Type: workload.Scan}, OpResult{Found: false, Work: 5})
	if o.Found != 1 || o.NotFound != 2 || o.WorkUnits != 15 {
		t.Fatalf("outcomes = %+v, want Found=1 NotFound=2 WorkUnits=15", o)
	}
}
