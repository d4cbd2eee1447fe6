package core

import (
	"fmt"

	"repro/internal/index/diskbtree"
	"repro/internal/kv"
	"repro/internal/pager"
	"repro/internal/workload"
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

// NewDiskBTreeSUTDefault returns the disk B+ tree with the stock pool.
func NewDiskBTreeSUTDefault() SUT { return NewDiskBTreeSUT(pager.DefaultPoolKnobs()) }

// DiskKVSUT adapts the disk-backed log-structured store. Work combines the
// store's probe counters (CPU) with the buffer pool's page I/O (priced by
// the IOModel); every memtable flush is followed by a catalog sync, so
// write-heavy workloads pay realistic fsync costs.
type DiskKVSUT struct {
	store    *kv.DiskStore
	last     kv.Counters
	lastPool pager.Counters
}

// NewDiskKVSUT wraps a disk store with the given store and pool knobs.
func NewDiskKVSUT(knobs kv.Knobs, pool pager.PoolKnobs) *DiskKVSUT {
	s, err := kv.OpenDisk(newMemPool(pool), knobs)
	if err != nil {
		panic(fmt.Sprintf("core: opening disk store: %v", err))
	}
	return &DiskKVSUT{store: s}
}

// NewDiskLSMSUTDefault returns a disk-LSM SUT with untuned defaults.
func NewDiskLSMSUTDefault() SUT {
	return NewDiskKVSUT(kv.DefaultKnobs(), pager.DefaultPoolKnobs())
}

// Name implements SUT.
func (s *DiskKVSUT) Name() string { return "disk-lsm" }

// Store exposes the wrapped store (tuner experiments, tests).
func (s *DiskKVSUT) Store() *kv.DiskStore { return s.store }

// Pool exposes the store's buffer pool.
func (s *DiskKVSUT) Pool() *pager.Pool { return s.store.Pool() }

// Load implements SUT.
func (s *DiskKVSUT) Load(keys, values []uint64) {
	for i, k := range keys {
		s.store.Put(k, values[i])
	}
	if err := s.store.Checkpoint(); err != nil {
		panic(fmt.Sprintf("core: disk store load checkpoint: %v", err))
	}
}

// Do implements SUT.
func (s *DiskKVSUT) Do(op workload.Op) OpResult {
	var res OpResult
	switch op.Type {
	case workload.Get:
		_, res.Found = s.store.Get(op.Key)
	case workload.Put:
		s.store.Put(op.Key, op.Value)
	case workload.Delete:
		s.store.Delete(op.Key)
		res.Found = true
	case workload.Scan:
		limit := op.ScanLimit
		res.Visited = s.store.Scan(op.Key, ^uint64(0), func(_, _ uint64) bool {
			limit--
			return limit > 0
		})
	}
	// Durability: a flush (or the compaction it triggered) leaves new runs
	// that must be published; the sync's page writes and fsyncs land in
	// this op's work — the disk LSM's latency-spike source.
	if s.store.Counters().Flushes != s.last.Flushes {
		if err := s.store.Sync(); err != nil {
			panic(fmt.Sprintf("core: disk store sync: %v", err))
		}
	}
	c := s.store.Counters()
	pc := s.store.Pool().Counters()
	work := int64(c.RunProbes-s.last.RunProbes) +
		int64(c.RunsSearchedSum-s.last.RunsSearchedSum) +
		int64(res.Visited) + 4
	work += int64(c.CompactedBytes-s.last.CompactedBytes) / 4
	d := pc.Sub(s.lastPool)
	work += ioModel.Work(d.PagesRead, d.PagesWritten, d.Fsyncs)
	s.last = c
	s.lastPool = pc
	res.Work = work
	return res
}

// DoBatch implements BatchSUT natively, mirroring KVSUT: issue-order
// dispatch through a direct call, with the counter advances pending from
// Load flushed to the batch's first slot. A lookup here is not read-only —
// it moves buffer-pool frames — so any reordering would change which later
// ops hit and what they cost.
func (s *DiskKVSUT) DoBatch(ops []workload.Op, out []OpResult) {
	if len(ops) == 0 {
		return
	}
	pending := s.flushPending()
	for i := range ops {
		out[i] = s.Do(ops[i])
	}
	out[0].Work += pending
}

// flushPending consumes any counter advance not yet attributed to an
// operation, priced exactly as Do would have priced it.
func (s *DiskKVSUT) flushPending() int64 {
	c := s.store.Counters()
	pc := s.store.Pool().Counters()
	work := int64(c.RunProbes-s.last.RunProbes) +
		int64(c.RunsSearchedSum-s.last.RunsSearchedSum)
	work += int64(c.CompactedBytes-s.last.CompactedBytes) / 4
	d := pc.Sub(s.lastPool)
	work += ioModel.Work(d.PagesRead, d.PagesWritten, d.Fsyncs)
	s.last = c
	s.lastPool = pc
	return work
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

// DoBatch forwards to the inner SUT's native batch path when it has one,
// so wrapping does not change which dispatch strategy runs.
func (c *ColdStartSUT) DoBatch(ops []workload.Op, out []OpResult) {
	if b, ok := c.SUT.(BatchSUT); ok {
		b.DoBatch(ops, out)
		return
	}
	for i := range ops {
		out[i] = c.SUT.Do(ops[i])
	}
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

// PoolOf returns the buffer pool behind a SUT, unwrapping the index
// adapter if needed; nil for in-memory SUTs.
func PoolOf(s SUT) *pager.Pool {
	type holder interface{ Pool() *pager.Pool }
	if h, ok := s.(holder); ok {
		return h.Pool()
	}
	if ix, ok := s.(*IndexSUT); ok {
		if h, ok := ix.Underlying().(holder); ok {
			return h.Pool()
		}
	}
	return nil
}

// DiskSUTs returns factories for the disk-backed SUT lineup with the
// given pool configuration.
func DiskSUTs(pool pager.PoolKnobs) []func() SUT {
	return []func() SUT{
		func() SUT { return NewDiskBTreeSUT(pool) },
		func() SUT { return NewDiskKVSUT(kv.DefaultKnobs(), pool) },
	}
}

var (
	_ SUT      = (*DiskKVSUT)(nil)
	_ BatchSUT = (*DiskKVSUT)(nil)
	_ SUT      = (*ColdStartSUT)(nil)
	_ BatchSUT = (*ColdStartSUT)(nil)
)
