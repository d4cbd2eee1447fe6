package core

import (
	"fmt"

	"repro/internal/index/diskbtree"
	"repro/internal/pager"
)

// The disk-backed SUTs run on an in-memory page backend by default: the
// page format, buffer pool, eviction policy, and I/O counters are exactly
// those of a real file, but results stay deterministic and no state leaks
// between runs. The cost model prices the counted page I/O into virtual
// time, so "disk" performance is simulated the same way service time is.

// newMemPool builds a fresh single-run page file under a pool.
func newMemPool(knobs pager.PoolKnobs) *pager.Pool {
	f, err := pager.Create(pager.NewMemBackend())
	if err != nil {
		panic(fmt.Sprintf("core: creating page file: %v", err))
	}
	return pager.NewPool(f, knobs)
}

// NewDiskBTreeSUT returns a paged B+ tree SUT over a fresh in-memory page
// file with the given pool configuration.
func NewDiskBTreeSUT(knobs pager.PoolKnobs) *IndexSUT {
	return NewIndexSUT(diskbtree.New(newMemPool(knobs)))
}

// ColdStartSUT wraps a disk-backed SUT so measurement begins from a cold
// buffer pool: after the initial load it checkpoints (durability), drops
// every cached frame, and records the counter baseline. The run's first
// reads then fault their pages in from the backend — the cold-cache
// scenario of Fig 1f — and MeasuredCounters isolates post-load traffic
// from the load's own page I/O.
type ColdStartSUT struct {
	SUT
	pool *pager.Pool
	base pager.Counters
}

// ColdStart wraps a disk-backed SUT; it panics if the SUT has no pool.
func ColdStart(s SUT) *ColdStartSUT {
	p := PoolOf(s)
	if p == nil {
		panic("core: ColdStart requires a disk-backed SUT")
	}
	return &ColdStartSUT{SUT: s, pool: p}
}

// Load implements SUT: load, persist, then empty the pool.
func (c *ColdStartSUT) Load(keys, values []uint64) {
	c.SUT.Load(keys, values)
	if err := c.pool.Checkpoint(); err != nil {
		panic(fmt.Sprintf("core: cold-start checkpoint: %v", err))
	}
	if err := c.pool.DropCache(); err != nil {
		panic(fmt.Sprintf("core: cold-start drop cache: %v", err))
	}
	c.base = c.pool.Counters()
}

// Pool exposes the pool so PoolOf (and Result.Storage) see through the
// wrapper.
func (c *ColdStartSUT) Pool() *pager.Pool { return c.pool }

// MeasuredCounters returns the pool counters accumulated after the cold
// start — the measurement phase's traffic only.
func (c *ColdStartSUT) MeasuredCounters() pager.Counters {
	return c.pool.Counters().Sub(c.base)
}

// StorageStats summarizes a disk-backed SUT's buffer-pool activity for
// results and reports. Nil on in-memory SUTs.
type StorageStats struct {
	Knobs    pager.PoolKnobs
	Counters pager.Counters
}

// poolHolder is a SUT or index with a buffer pool.
type poolHolder interface{ Pool() *pager.Pool }

// PoolOf returns the buffer pool behind a SUT; nil for in-memory SUTs.
func PoolOf(s SUT) *pager.Pool {
	if h, ok := s.(poolHolder); ok {
		return h.Pool()
	}
	return nil
}

var _ SUT = (*ColdStartSUT)(nil)
