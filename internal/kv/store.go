package kv

import (
	"encoding/binary"
	"math"

	"repro/internal/kv/bloom"
	"repro/internal/pager"
	"repro/internal/sortbuf"
)

// Store is a log-structured KV store: writes land in a sorted memtable;
// full memtables flush to immutable sorted runs; when more than
// Knobs.MaxRuns runs accumulate they are merge-compacted into one. Reads
// consult the memtable, then runs newest-to-oldest through Bloom filters
// and each run's own index.
//
// There is one engine and two places to keep runs, chosen by the
// constructor: Open keeps them as slices in memory (run.go), OpenDisk as
// slotted pages behind a buffer pool (disklsm.go), where reads and
// compactions move 4 KiB pages that the pool counts and the cost model
// prices.
//
// Not safe for concurrent use; the benchmark driver shards or serializes.
type Store struct {
	knobs Knobs

	// mem is the memtable: each key written since the last flush, in key
	// order, with its newest value or tombstone; flushes reuse its blocks.
	mem sortbuf.Buffer[memVal]

	runs    []run // runs[0] is newest
	store   runStore
	cursors []cursor // Scan's, one per run, reused

	st Counters
}

// memVal is a memtable value: the newest value, little-endian, and a last
// byte of 1 for a tombstone (value 0). Nine unpadded bytes keep a memtable
// block at 8.5 KiB; a {uint64, bool} struct would pad it to 12.
type memVal [9]byte

// entry returns key's state as a run holds it.
func (v *memVal) entry(key uint64) entry {
	return entry{key: key, val: binary.LittleEndian.Uint64(v[:]), dead: v[8] == 1}
}

// run is one immutable sorted run as the engine holds it. The entry count
// and Bloom filter stay in memory whichever store keeps the entries.
type run struct {
	n      int
	filter *bloom.Filter
	data   runData
}

// runStore is where the engine keeps its runs: sliceRuns or *pagedRuns.
type runStore interface {
	// write stores sorted, deduplicated entries as a new run.
	write(entries []entry, k Knobs) runData
	// sync makes the run directory (newest first) survive a crash; a
	// store with nothing durable returns nil.
	sync(runs []run) error
	// pool is the buffer pool runs are read through, nil without one.
	pool() *pager.Pool
	// reachable lists every page the directory and the runs occupy.
	reachable(runs []run) []pager.PageID
}

// runData is one run's entries. The engine takes them a sorted chunk at a
// time (a slice run is one chunk, a paged run one chunk per page), so
// merges and scans index plain slices rather than calling through the
// interface per entry.
type runData interface {
	// get looks key up through the run's own index. probes is what the
	// lookup touched in that index's unit — the block it narrowed to for
	// a slice run, binary-search steps inside the page for a paged run —
	// which is why Counters.RunProbes is comparable only within one store.
	get(key uint64) (e entry, found bool, probes int)
	// seek returns the chunk that holds the first entry with key >= lo,
	// when the run has such an entry.
	seek(lo uint64) int
	// chunk returns the i-th chunk in key order, nil past the last.
	chunk(i int) []entry
	// all returns every entry in key order.
	all() []entry
	// free releases the storage of a run that compaction replaced.
	free()
}

// Counters exposes the store's internal work counters so benchmarks can
// explain throughput differences between knob settings.
type Counters struct {
	Gets            uint64
	Puts            uint64
	Deletes         uint64
	Flushes         uint64
	Compactions     uint64
	CompactedBytes  uint64 // entries rewritten by compaction
	RunProbes       uint64 // entries touched during run lookups
	BloomNegatives  uint64 // run lookups skipped by a filter
	MemtableHits    uint64
	RunsSearchedSum uint64 // total runs consulted across Gets
}

// Open returns an empty in-memory store with the given knobs.
func Open(knobs Knobs) *Store {
	return &Store{knobs: knobs.Validate(), store: sliceRuns{}}
}

// OpenDisk returns a store that keeps its runs in pool's page file. A
// fresh file starts empty; a file with a published catalog resumes from
// it, rebuilding the in-memory page indexes and Bloom filters and the
// pool's free-list (by reachability, so a crash anywhere leaves no
// inconsistency to repair).
func OpenDisk(pool *pager.Pool, knobs Knobs) (*Store, error) {
	p := &pagedRuns{pl: pool}
	s := &Store{knobs: knobs.Validate(), store: p}
	if pool.File().Root(catalogRootSlot) != pager.NilPage {
		runs, err := p.loadCatalog(s.knobs.BloomBitsPerKey)
		if err != nil {
			return nil, err
		}
		s.runs = runs
		pool.RebuildFreeList(s.Reachable())
	}
	return s, nil
}

// Pool exposes the buffer pool of a store opened with OpenDisk (for
// counters and checkpoints); nil for an in-memory store.
func (s *Store) Pool() *pager.Pool { return s.store.pool() }

// Knobs returns the active configuration.
func (s *Store) Knobs() Knobs { return s.knobs }

// Counters returns a snapshot of the work counters.
func (s *Store) Counters() Counters { return s.st }

// LiveCounters returns the work counters in place, for a caller that prices
// every op without copying a snapshot; it must not write them.
func (s *Store) LiveCounters() *Counters { return &s.st }

// SetKnobs applies a new configuration (an online re-tune). The new
// MaxRuns takes effect at the next write; a stricter run budget triggers an
// immediate compaction so reads benefit right away.
func (s *Store) SetKnobs(k Knobs) {
	s.knobs = k.Validate()
	if len(s.runs) > s.knobs.MaxRuns {
		s.compact()
	}
}

// Put inserts or overwrites key.
func (s *Store) Put(key, value uint64) {
	s.st.Puts++
	var v memVal
	binary.LittleEndian.PutUint64(v[:], value)
	s.memPut(key, v)
}

// Delete removes key (tombstone semantics: the deletion masks older runs).
func (s *Store) Delete(key uint64) {
	s.st.Deletes++
	s.memPut(key, memVal{8: 1})
}

// memPut writes v for key; a new key may fill the memtable, which flushes.
func (s *Store) memPut(key uint64, v memVal) {
	if _, added := s.mem.Put(key, v); added && s.mem.Len() >= s.knobs.MemtableCap {
		s.flush()
	}
}

// newRun hands sorted, deduplicated entries to the run store and builds
// their filter.
func (s *Store) newRun(entries []entry) run {
	r := run{n: len(entries), filter: bloom.New(len(entries), s.knobs.BloomBitsPerKey)}
	if r.filter != nil {
		for _, e := range entries {
			r.filter.Add(e.key)
		}
	}
	r.data = s.store.write(entries, s.knobs)
	return r
}

// flush turns the memtable into the newest run.
func (s *Store) flush() {
	if s.mem.Len() == 0 {
		return
	}
	s.st.Flushes++
	entries := make([]entry, 0, s.mem.Len())
	for c := s.mem.Seek(0); c.Valid(); c.Next() {
		k, v, _ := c.Pair()
		entries = append(entries, v.entry(k))
	}
	s.runs = append([]run{s.newRun(entries)}, s.runs...)
	s.mem.Reset()
	if len(s.runs) > s.knobs.MaxRuns {
		s.compact()
	}
}

// compact merges all runs into one (single-tier size-tiered policy),
// dropping tombstones. Every input is read whole, newest run first, before
// the output is written and the inputs are freed: on the paged store that
// is the order the buffer pool sees, and its state is part of the result.
func (s *Store) compact() {
	if len(s.runs) <= 1 {
		return
	}
	s.st.Compactions++
	var merged []entry
	for _, r := range s.runs {
		s.st.CompactedBytes += uint64(r.n)
		merged = mergePair(merged, r.data.all())
	}
	// Full merge: a tombstone has masked everything older, so it can go.
	w := 0
	for _, e := range merged {
		if !e.dead {
			merged[w] = e
			w++
		}
	}
	old := s.runs
	s.runs = []run{s.newRun(merged[:w])}
	for _, r := range old {
		r.data.free()
	}
}

// mergePair merges two sorted entry slices into a new one; entries in
// newer win ties.
func mergePair(newer, older []entry) []entry {
	out := make([]entry, 0, len(newer)+len(older))
	i, j := 0, 0
	for i < len(newer) && j < len(older) {
		switch {
		case newer[i].key < older[j].key:
			out = append(out, newer[i])
			i++
		case newer[i].key > older[j].key:
			out = append(out, older[j])
			j++
		default:
			out = append(out, newer[i])
			i++
			j++
		}
	}
	out = append(out, newer[i:]...)
	return append(out, older[j:]...)
}

// Get returns the value for key.
func (s *Store) Get(key uint64) (uint64, bool) {
	s.st.Gets++
	if v, found := s.mem.Get(key); found {
		s.st.MemtableHits++
		e := v.entry(key)
		return e.val, !e.dead
	}
	for _, r := range s.runs {
		s.st.RunsSearchedSum++
		if !r.filter.MayContain(key) {
			s.st.BloomNegatives++
			continue
		}
		e, found, probes := r.data.get(key)
		s.st.RunProbes += uint64(probes)
		if found {
			if e.dead {
				return 0, false
			}
			return e.val, true
		}
	}
	return 0, false
}

// Scan returns how many live entries with key >= lo a walk in ascending key
// order visits before it reaches limit (0 when limit < 1). The walk merges
// the memtable and all runs with newest-wins semantics, stepping and
// settling every cursor as it goes, so it reads the pages an entry-by-entry
// scan reads, in the same order.
func (s *Store) Scan(lo uint64, limit int) int {
	if limit < 1 {
		return 0
	}
	// Position each run cursor at the first entry >= lo, newest first. The
	// cursors live in s.cursors so that a scan allocates nothing.
	cursors := s.cursors[:0]
	for _, r := range s.runs {
		cursors = append(cursors, cursor{data: r.data, next: r.data.seek(lo)})
		c := &cursors[len(cursors)-1]
		c.load()
		c.idx = lowerBoundEntries(c.cur, 0, len(c.cur), lo)
		c.settle()
	}
	s.cursors = cursors
	mc := s.mem.Seek(lo)

	visited := 0
	for visited < limit {
		// Smallest current key across memtable and runs; newer wins ties.
		var e entry
		found := false
		if k, v, ok := mc.Pair(); ok {
			e, found = v.entry(k), true
		}
		for i := range cursors {
			c := &cursors[i]
			if c.cur == nil {
				continue
			}
			if k := c.cur[c.idx].key; !found || k < e.key {
				e, found = c.cur[c.idx], true
			}
		}
		if !found {
			break
		}
		// Step every source sitting on e.key (dedup across sources).
		if k, _, ok := mc.Pair(); ok && k == e.key {
			mc.Next()
		}
		for i := range cursors {
			c := &cursors[i]
			if c.cur != nil && c.cur[c.idx].key == e.key {
				c.idx++
				c.settle()
			}
		}
		if !e.dead {
			visited++
		}
	}
	clear(cursors) // hold no run a compaction may free
	return visited
}

// cursor walks one run a chunk at a time. Past the end cur is nil;
// otherwise cur[idx] is the entry under the cursor.
type cursor struct {
	data runData
	next int // the chunk after cur
	cur  []entry
	idx  int
}

func (c *cursor) load() {
	c.cur, c.idx = c.data.chunk(c.next), 0
	c.next++
}

// settle moves on to the following chunk when the cursor has run off the
// current one. It does so at once rather than when the next entry is
// wanted: a paged chunk is a buffer-pool read, and which reads happen, and
// in what order, is part of the result.
func (c *cursor) settle() {
	for c.cur != nil && c.idx >= len(c.cur) {
		c.load()
	}
}

// Len returns the number of live keys. It is O(data) — intended for tests
// and reports, not hot paths.
func (s *Store) Len() int {
	return s.Scan(0, math.MaxInt)
}

// RunCount reports the current number of runs.
func (s *Store) RunCount() int { return len(s.runs) }

// Flush forces the memtable out into a new run (test/benchmark hook).
func (s *Store) Flush() { s.flush() }

// Reachable returns every page referenced by the current catalog and runs
// — the input to pager consistency checks. Nil for an in-memory store.
func (s *Store) Reachable() []pager.PageID { return s.store.reachable(s.runs) }

// Checkpoint makes the current contents durable: the memtable is flushed
// and the run set published with Sync.
func (s *Store) Checkpoint() error {
	s.flush()
	return s.Sync()
}

// Sync publishes the current run set without forcing a memtable flush —
// the durability step a store performs after each natural flush or
// compaction (buffered memtable entries are the volatile tier by design).
// On an in-memory store there is nothing to publish.
func (s *Store) Sync() error { return s.store.sync(s.runs) }
