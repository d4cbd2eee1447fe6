package core

import "repro/internal/pager"

// The price list: what each counted unit of work costs, in the work units
// the virtual clock turns into time (sim.CostModel.PerWorkNs). Indexes, the
// LSM store and the buffer pool only count (index.Stats, kv.Counters,
// pager.Counters); IndexSUT and KVSUT take the counters' advance over an op
// and apply this table.
const (
	// Index work. Online training inside an op is also charged as
	// training overhead (OnlineTrainWork: the paper's Lesson 3).
	priceCompare  = 1  // a key comparison performed (Stats.Compares)
	priceModelled = 1  // a unit an index prices but does not perform (Stats.Modelled)
	priceVisited  = 1  // an entry a scan visits
	priceTrain    = 1  // an entry touched by online training (Stats.TrainWork)
	priceSplit    = 16 // tree split or directory bookkeeping (Stats.Splits)

	// LSM work (kv.Counters).
	priceRunProbe    = 1 // an entry probed in a run
	priceRunSearched = 1 // a run a get consults
	compactedPerUnit = 4 // entries compaction rewrites per unit, truncated per settlement

	// Two kept asymmetries, on which every golden rests: an index put or
	// delete pays for its slot write and shift (ALEX's performed gap shift
	// rides on it) and an index get pays nothing more, while every KV op,
	// a get too, pays for its memtable access.
	priceIndexWrite = 4
	priceKVOp       = 4

	// Page I/O (pager.Counters), NVMe-like against the ≈ 8 ns unit, and
	// modelled: the in-memory page file performs none of it. The index
	// adapter prices no fsync: its only fsyncs are ColdStart's post-load
	// checkpoint, and pricing them would move every Fig 1f cold-cache run.
	pricePageRead   = 1250  // ≈ 10 µs
	pricePageWrite  = 2500  // ≈ 20 µs
	priceFsync      = 12500 // ≈ 100 µs
	priceIndexFsync = 0
)

// pageMeter prices a buffer pool's page I/O since its previous reading; it
// prices 0 without a pool.
type pageMeter struct {
	pool *pager.Pool
	last struct{ read, written, fsyncs uint64 }
}

// work prices the page I/O since the last call, fsyncs at fsync units each.
func (m *pageMeter) work(fsync int64) int64 {
	if m.pool == nil {
		return 0
	}
	p, l := m.pool.LiveCounters(), &m.last
	w := int64(p.PagesRead-l.read)*pricePageRead +
		int64(p.PagesWritten-l.written)*pricePageWrite +
		int64(p.Fsyncs-l.fsyncs)*fsync
	l.read, l.written, l.fsyncs = p.PagesRead, p.PagesWritten, p.Fsyncs
	return w
}
