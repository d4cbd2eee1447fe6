package core

import (
	"fmt"
	"strings"

	"repro/internal/index"
	"repro/internal/index/alex"
	"repro/internal/index/btree"
	"repro/internal/index/hashidx"
	"repro/internal/index/rmi"
	"repro/internal/kv"
	"repro/internal/pager"
	"repro/internal/workload"
)

// IndexSUT adapts any index into a benchmark SUT, pricing each operation's
// Work from the index's counters (and its buffer pool's, when it pages) so
// the virtual clock charges realistic, distribution-dependent service times.
type IndexSUT struct {
	ix index.Measured
	st *index.Stats // ix's counters, read in place (LiveStats)
	io pageMeter
	// last is the priced index counters as of the previous op boundary.
	last   struct{ compares, modelled, splits, trainWork uint64 }
	online int64
}

// NewIndexSUT wraps an index.
func NewIndexSUT(ix index.Measured) *IndexSUT {
	s := &IndexSUT{ix: ix, st: ix.LiveStats()}
	if h, ok := ix.(poolHolder); ok {
		s.io.pool = h.Pool()
	}
	return s
}

// Name implements SUT.
func (s *IndexSUT) Name() string { return s.ix.Name() }

// Load implements SUT.
func (s *IndexSUT) Load(keys, values []uint64) { s.ix.BulkLoad(keys, values) }

// Do implements SUT.
func (s *IndexSUT) Do(op workload.Op) OpResult {
	var res OpResult
	switch op.Type {
	case workload.Get:
		_, res.Found = s.ix.Get(op.Key)
	case workload.Put:
		s.ix.Insert(op.Key, op.Value)
	case workload.Delete:
		res.Found = s.ix.Delete(op.Key)
	case workload.Scan:
		res.Visited = s.ix.Scan(op.Key, op.ScanLimit)
	}
	res.Work = s.workDelta(op, res)
	return res
}

// workDelta prices the counters' advance since the previous op (price.go).
// Splits and online model rebuilds are the latency spikes the adaptability
// metrics must surface; the rebuilds also count as training overhead.
func (s *IndexSUT) workDelta(op workload.Op, res OpResult) int64 {
	st, l := s.st, &s.last
	train := int64(st.TrainWork - l.trainWork)
	work := int64(st.Compares-l.compares)*priceCompare +
		int64(st.Modelled-l.modelled)*priceModelled +
		int64(st.Splits-l.splits)*priceSplit +
		train*priceTrain +
		int64(res.Visited)*priceVisited +
		s.io.work(priceIndexFsync)
	l.compares, l.modelled, l.splits, l.trainWork = st.Compares, st.Modelled, st.Splits, st.TrainWork
	s.online += train
	if op.Type == workload.Put || op.Type == workload.Delete {
		work += priceIndexWrite
	}
	return work
}

// Train implements Trainable when the wrapped index is trainable.
func (s *IndexSUT) Train() TrainReport {
	tr, ok := s.ix.(index.Trainable)
	if !ok {
		return TrainReport{}
	}
	work := tr.Retrain()
	return TrainReport{WorkUnits: int64(work), Models: tr.ModelCount()}
}

// OnlineTrainWork implements OnlineLearner: structural adaptation work
// accumulated during execution.
func (s *IndexSUT) OnlineTrainWork() int64 { return s.online }

// Underlying exposes the wrapped index (examples and tests).
func (s *IndexSUT) Underlying() index.Ordered { return s.ix }

// Pool exposes the index's buffer pool; nil for an in-memory index.
func (s *IndexSUT) Pool() *pager.Pool { return s.io.pool }

// Factories for the standard SUT lineup.

// NewBTreeSUT returns the traditional B+ tree SUT.
func NewBTreeSUT() SUT { return NewIndexSUT(btree.NewDefault()) }

// NewHashSUT returns the hash-index SUT.
func NewHashSUT() SUT { return NewIndexSUT(hashidx.New()) }

// NewRMISUT returns the static learned-index SUT.
func NewRMISUT() SUT { return NewIndexSUT(rmi.NewDefault()) }

// NewALEXSUT returns the adaptive learned-index SUT.
func NewALEXSUT() SUT { return NewIndexSUT(alex.New()) }

// sutCatalog is the one name → factory table: every front end (lsbench and
// its serve sut role, lstrace, the service, the figures, the facade) offers
// exactly these SUTs under exactly these names. pool sizes the buffer pool
// of the disk-backed entries; the in-memory ones ignore it.
var sutCatalog = []struct {
	name string
	make func(pool pager.PoolKnobs) SUT
}{
	{"btree", func(pager.PoolKnobs) SUT { return NewBTreeSUT() }},
	{"hash", func(pager.PoolKnobs) SUT { return NewHashSUT() }},
	{"rmi", func(pager.PoolKnobs) SUT { return NewRMISUT() }},
	{"alex", func(pager.PoolKnobs) SUT { return NewALEXSUT() }},
	{"kvstore", func(pager.PoolKnobs) SUT { return NewKVSUTDefault() }},
	{"disk-btree", func(pool pager.PoolKnobs) SUT { return NewDiskBTreeSUT(pool) }},
	{"disk-lsm", func(pool pager.PoolKnobs) SUT { return NewDiskKVSUT(kv.DefaultKnobs(), pool) }},
}

// SUTNames lists the SUT catalog in order.
func SUTNames() []string {
	names := make([]string, len(sutCatalog))
	for i, e := range sutCatalog {
		names[i] = e.name
	}
	return names
}

// SUTByName returns the factory for a catalog name, building disk-backed
// SUTs over a buffer pool of the given configuration.
func SUTByName(name string, pool pager.PoolKnobs) (func() SUT, error) {
	for _, e := range sutCatalog {
		if e.name == name {
			return func() SUT { return e.make(pool) }, nil
		}
	}
	return nil, UnknownSUT(name, SUTNames())
}

// UnknownSUT is the error every front end reports for a SUT name it does
// not offer; have lists the names it does.
func UnknownSUT(name string, have []string) error {
	return fmt.Errorf("unknown SUT %q (have: %s)", name, strings.Join(have, ","))
}

// StandardSUTs returns factories for the in-memory index comparison
// lineup: the catalog's btree, hash, rmi and alex rows.
func StandardSUTs() []func() SUT {
	return []func() SUT{NewBTreeSUT, NewHashSUT, NewRMISUT, NewALEXSUT}
}

// KVSUT adapts the log-structured kv.Store, in memory ("kvstore") or over a
// page file ("disk-lsm"). Work is the store's counters plus, when the store
// has a buffer pool, the pool's page I/O, each priced by the table in
// price.go.
type KVSUT struct {
	store *kv.Store
	io    pageMeter // over store.Pool(), read once: nil for the in-memory store
	// last is the store counters as of the previous op boundary, read in
	// place (LiveCounters): Counters() copies cost the disk LSM ≈ 5 %.
	last struct{ runProbes, runsSearched, compacted, flushes uint64 }
}

// DiskKVSUT is the KVSUT that NewDiskKVSUT returns.
type DiskKVSUT = KVSUT

// NewKVSUT wraps a store opened with the given knobs.
func NewKVSUT(knobs kv.Knobs) *KVSUT { return &KVSUT{store: kv.Open(knobs)} }

// NewKVSUTDefault returns a kv-store SUT with the untuned default knobs.
func NewKVSUTDefault() SUT { return NewKVSUT(kv.DefaultKnobs()) }

// NewDiskKVSUT wraps a disk store with the given store and pool knobs.
func NewDiskKVSUT(knobs kv.Knobs, pool pager.PoolKnobs) *DiskKVSUT {
	s, err := kv.OpenDisk(newMemPool(pool), knobs)
	if err != nil {
		panic(fmt.Sprintf("core: opening disk store: %v", err))
	}
	return &KVSUT{store: s, io: pageMeter{pool: s.Pool()}}
}

// Name implements SUT.
func (s *KVSUT) Name() string {
	if s.io.pool != nil {
		return "disk-lsm"
	}
	return "kvstore"
}

// Store exposes the wrapped store (for the tuner experiments).
func (s *KVSUT) Store() *kv.Store { return s.store }

// Pool exposes the store's buffer pool; nil for the in-memory store.
func (s *KVSUT) Pool() *pager.Pool { return s.io.pool }

// Load implements SUT.
func (s *KVSUT) Load(keys, values []uint64) {
	for i, k := range keys {
		s.store.Put(k, values[i])
	}
	if err := s.store.Checkpoint(); err != nil {
		panic(fmt.Sprintf("core: kv store load checkpoint: %v", err))
	}
}

// Do implements SUT. Counters that advanced outside Do (Load and its
// checkpoint) are settled before the op is issued: their work is charged
// to this op, and the flushes among them — already synced — do not make
// it sync again.
func (s *KVSUT) Do(op workload.Op) OpResult {
	pending := s.flushPending()
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
		res.Visited = s.store.Scan(op.Key, op.ScanLimit)
	}
	// Durability: a flush (or the compaction it triggered) leaves new runs
	// that a disk store must publish; the sync's page writes and fsyncs
	// land in this op's work — the disk LSM's latency-spike source.
	if s.io.pool != nil && s.store.LiveCounters().Flushes != s.last.flushes {
		if err := s.store.Sync(); err != nil {
			panic(fmt.Sprintf("core: disk store sync: %v", err))
		}
	}
	res.Work = pending + s.flushPending() + int64(res.Visited)*priceVisited + priceKVOp
	return res
}

// flushPending consumes the counter advance not yet attributed to an
// operation and prices it: probes, plus compaction volume (the kv store's
// latency-spike source), plus page I/O when there is a pool.
func (s *KVSUT) flushPending() int64 {
	c, l := s.store.LiveCounters(), &s.last
	work := int64(c.RunProbes-l.runProbes)*priceRunProbe +
		int64(c.RunsSearchedSum-l.runsSearched)*priceRunSearched +
		int64(c.CompactedBytes-l.compacted)/compactedPerUnit +
		s.io.work(priceFsync)
	l.runProbes, l.runsSearched, l.compacted, l.flushes = c.RunProbes, c.RunsSearchedSum, c.CompactedBytes, c.Flushes
	return work
}

var (
	_ SUT           = (*IndexSUT)(nil)
	_ Trainable     = (*IndexSUT)(nil)
	_ OnlineLearner = (*IndexSUT)(nil)
	_ SUT           = (*KVSUT)(nil)
)
