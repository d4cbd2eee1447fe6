package pager

import (
	"fmt"
	"slices"
)

// PoolKnobs configures a buffer pool — the new tuner target: capacity and
// eviction policy are exactly the kind of knob an auto-tuner searches and
// a DBA sets from rules of thumb.
type PoolKnobs struct {
	// Pages is the pool capacity in frames.
	Pages int
	// Policy selects the eviction policy: "lru", "clock", or "2q".
	Policy string
}

// DefaultPoolKnobs returns the untuned stock pool: modest capacity, LRU.
func DefaultPoolKnobs() PoolKnobs { return PoolKnobs{Pages: 64, Policy: "lru"} }

// Validate normalizes out-of-range values. The minimum capacity (8) keeps
// room for a full B+ tree root-to-leaf path plus split scratch pages.
func (k PoolKnobs) Validate() PoolKnobs {
	if k.Pages < 8 {
		k.Pages = 8
	}
	switch k.Policy {
	case "lru", "clock", "2q":
	default:
		k.Policy = "lru"
	}
	return k
}

// String renders the knobs compactly for reports.
func (k PoolKnobs) String() string {
	return fmt.Sprintf("pool{pages=%d policy=%s}", k.Pages, k.Policy)
}

// Counters are the pool's work counters: the "why" behind a disk SUT's
// throughput. Reads/writes count page-sized I/Os against the backend;
// hits/misses count Get requests against the cache.
type Counters struct {
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	DirtyWritebacks uint64
	Fsyncs          uint64
	PagesRead       uint64
	PagesWritten    uint64
}

// HitRatio returns hits / (hits + misses), 0 when the pool was never hit.
func (c Counters) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Sub returns the counter delta c - prev (for per-op work accounting).
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Hits:            c.Hits - prev.Hits,
		Misses:          c.Misses - prev.Misses,
		Evictions:       c.Evictions - prev.Evictions,
		DirtyWritebacks: c.DirtyWritebacks - prev.DirtyWritebacks,
		Fsyncs:          c.Fsyncs - prev.Fsyncs,
		PagesRead:       c.PagesRead - prev.PagesRead,
		PagesWritten:    c.PagesWritten - prev.PagesWritten,
	}
}

// table is a value per page number. Page numbers are file offsets divided
// by the page size — dense small integers — so everything the pool and its
// policies key by page is a slice indexed by PageID, never a map. A table
// grows only for an ID the file verified or the pool issued, so it never
// has more than File.PageCount entries.
type table[T any] []T

// at returns the value for id: the zero value for one never set.
func (t table[T]) at(id PageID) (v T) {
	if int(id) < len(t) {
		v = t[id]
	}
	return v
}

// set stores v for id, growing the table (by append's doubling) to reach it.
func (t *table[T]) set(id PageID, v T) {
	if n := int(id) + 1 - len(*t); n > 0 {
		*t = append(*t, make([]T, n)...)
	}
	(*t)[id] = v
}

// frame is one cached page. Frames are recycled: one that leaves the pool
// (evicted, freed, or never filled because its read failed) backs the next
// page admitted, so a *Page is the caller's only while it is pinned.
type frame struct {
	page  Page
	id    PageID // the page held; stale once the frame is spare
	slot  int    // the frame's index in Pool.slots
	pins  int
	dirty bool
}

// Pool is a buffer pool over a page File: fixed capacity, pluggable
// eviction, pin/unpin discipline, write-back caching. Like the SUTs it
// serves, it is not safe for concurrent use — the benchmark runner
// serializes operations per SUT.
//
// The pool also owns the free-list, with copy-on-write discipline: a page
// freed since the last checkpoint (freeNext) is quarantined — it may
// still be referenced by the published checkpoint, so reusing (and thus
// overwriting) it before the next checkpoint would make a crash
// unrecoverable. Checkpoint promotes the quarantine into the reusable set
// (freeNow). Structures that only ever write freshly allocated pages and
// flip a root at checkpoint (the disk LSM) are therefore crash-consistent
// end to end.
type Pool struct {
	f      *File
	knobs  PoolKnobs
	frames table[*frame] // by page number; nil = not resident
	// slots is every frame there is, at most knobs.Pages: the first
	// resident of them hold pages, the rest are spare, contents dead.
	slots    []*frame
	resident int
	ids      []PageID // heldIDs' result, reused
	policy   evictPolicy
	// pinned is what policy.victim skips by; built once so that a miss
	// allocates no closure.
	pinned func(PageID) bool
	st     Counters

	freeNow  []PageID // reusable, descending (pop the lowest from the back)
	freeNext []PageID // freed since last checkpoint, quarantined
}

// NewPool wraps f with a buffer pool.
func NewPool(f *File, knobs PoolKnobs) *Pool {
	knobs = knobs.Validate()
	p := &Pool{
		f:      f,
		knobs:  knobs,
		slots:  make([]*frame, 0, knobs.Pages),
		policy: newPolicy(knobs),
	}
	p.pinned = func(id PageID) bool {
		fr := p.frames.at(id)
		return fr == nil || fr.pins > 0
	}
	return p
}

// File exposes the underlying page file (root pointers, meta state).
func (p *Pool) File() *File { return p.f }

// Knobs returns the active configuration.
func (p *Pool) Knobs() PoolKnobs { return p.knobs }

// Counters returns a snapshot of the work counters.
func (p *Pool) Counters() Counters { return p.st }

// LiveCounters returns the work counters in place, for a caller that prices
// every op without copying a snapshot; it must not write them.
func (p *Pool) LiveCounters() *Counters { return &p.st }

// Get returns page id pinned; the caller must Unpin it. A miss evicts (and
// writes back) per the pool's policy, reads the page from the file, and
// verifies its checksum — all before any table is touched, so an ID past
// the end of the file is refused without growing one.
func (p *Pool) Get(id PageID) (*Page, error) {
	if fr := p.frames.at(id); fr != nil {
		p.st.Hits++
		fr.pins++
		p.policy.touch(id)
		return &fr.page, nil
	}
	p.st.Misses++
	if err := p.makeRoom(); err != nil {
		return nil, err
	}
	fr := p.takeFrame()
	if err := p.f.ReadPage(id, &fr.page); err != nil {
		return nil, err // fr was never admitted: still spare
	}
	p.st.PagesRead++
	p.admit(id, fr)
	return &fr.page, nil
}

// Unpin releases one pin on id; dirty marks the page modified so eviction
// and Flush write it back.
func (p *Pool) Unpin(id PageID, dirty bool) {
	fr := p.frames.at(id)
	if fr == nil || fr.pins == 0 {
		panic(fmt.Sprintf("pager: unpin of unpinned page %d", id))
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
}

// Alloc returns a fresh pinned page of the given type, reusing the lowest
// reusable free page when available and extending the file otherwise. The
// page is zeroed, typed, and dirty; the caller must Unpin it.
func (p *Pool) Alloc(t PageType) (*Page, PageID, error) {
	// Room first: a pool with every frame pinned must fail before an id is
	// taken, or that id would be neither reachable nor free.
	if err := p.makeRoom(); err != nil {
		return nil, NilPage, err
	}
	var id PageID
	if n := len(p.freeNow); n > 0 {
		id, p.freeNow = p.freeNow[n-1], p.freeNow[:n-1]
	} else {
		id = PageID(p.f.working.pageCount)
		p.f.working.pageCount++
	}
	fr := p.takeFrame()
	fr.dirty = true
	fr.page.Reset(id, t)
	p.admit(id, fr)
	return &fr.page, id, nil
}

// Free returns page id to the free-list. The page must be unpinned; any
// cached dirty state is discarded (its content is dead). The page enters
// the quarantined set and becomes reusable only after the next checkpoint
// — until then the published checkpoint may still reference it, and its
// bytes must survive a crash. Only a page Alloc could have issued can be
// freed: a meta slot on the free-list would be handed out as a data page.
func (p *Pool) Free(id PageID) error {
	if id < 2 || uint32(id) >= p.f.working.pageCount {
		return fmt.Errorf("pager: freeing page %d outside [2,%d)", id, p.f.working.pageCount)
	}
	if fr := p.frames.at(id); fr != nil {
		if fr.pins > 0 {
			return fmt.Errorf("pager: freeing pinned page %d", id)
		}
		p.release(fr)
	}
	p.freeNext = append(p.freeNext, id)
	return nil
}

// FreePages returns the free set (reusable + quarantined), ascending —
// the consistency-audit view of the free-list.
func (p *Pool) FreePages() []PageID {
	out := slices.Concat(p.freeNow, p.freeNext)
	slices.Sort(out)
	return out
}

// RebuildFreeList derives the free-list from reachability: every
// allocatable page not in reachable becomes reusable. Structures call this
// after reopening a file — the free-list can then never disagree with the
// data that survived, regardless of where a crash landed.
func (p *Pool) RebuildFreeList(reachable []PageID) {
	live := make([]bool, p.f.working.pageCount)
	for _, id := range reachable {
		if int(id) < len(live) {
			live[id] = true
		}
	}
	p.freeNow = p.freeNow[:0]
	p.freeNext = p.freeNext[:0]
	for id := len(live) - 1; id >= 2; id-- {
		if !live[id] {
			p.freeNow = append(p.freeNow, PageID(id))
		}
	}
}

// CheckConsistency verifies that the free set and the reachable set
// partition the allocatable pages: no page is both, none is neither, and
// no reachable page is referenced twice. Test and recovery-audit helper.
func (p *Pool) CheckConsistency(reachable []PageID) error {
	const (
		live = 1
		free = 2
	)
	state := make([]uint8, p.f.working.pageCount)
	for _, id := range reachable {
		if id < 2 || uint32(id) >= p.f.working.pageCount {
			return fmt.Errorf("pager: reachable page %d out of bounds [2,%d)", id, p.f.working.pageCount)
		}
		if state[id] == live {
			return fmt.Errorf("pager: page %d referenced twice", id)
		}
		state[id] = live
	}
	for _, id := range p.FreePages() { // in bounds: Free refuses the rest
		if state[id] == live {
			return fmt.Errorf("pager: page %d is both reachable and free", id)
		}
		if state[id] == free {
			return fmt.Errorf("pager: page %d is on the free-list twice", id)
		}
		state[id] = free
	}
	for id := 2; id < len(state); id++ {
		if state[id] == 0 {
			return fmt.Errorf("pager: page %d is neither reachable nor free (orphan)", id)
		}
	}
	return nil
}

// DropCache writes back dirty pages and empties the pool — the cold-cache
// experiment hook. Fails if any page is pinned.
func (p *Pool) DropCache() error {
	for _, fr := range p.slots[:p.resident] {
		if fr.pins > 0 {
			return fmt.Errorf("pager: dropping cache with pinned pages")
		}
	}
	if err := p.Flush(); err != nil {
		return err
	}
	// Removal in page order keeps policy-internal state (e.g. 2Q's ghost
	// queue) independent of which frame happens to hold which page.
	for _, id := range p.heldIDs(false) {
		p.release(p.frames[id])
	}
	return nil
}

// heldIDs returns the resident pages (the dirty ones only, if dirtyOnly),
// ascending. It walks the pool's frames, never the table, so its cost is
// the pool's size at any file size; the result is valid until the next call.
func (p *Pool) heldIDs(dirtyOnly bool) []PageID {
	p.ids = p.ids[:0]
	for _, fr := range p.slots[:p.resident] {
		if fr.dirty || !dirtyOnly {
			p.ids = append(p.ids, fr.id)
		}
	}
	slices.Sort(p.ids)
	return p.ids
}

// takeFrame returns the first spare frame pinned once and clean, its page
// image unspecified: the caller overwrites all of it (ReadPage) or resets
// it, then admits it. A new frame is allocated only while the pool has never
// been full — after makeRoom fewer than knobs.Pages frames are resident.
func (p *Pool) takeFrame() *frame {
	if p.resident == len(p.slots) {
		p.slots = append(p.slots, &frame{slot: len(p.slots)})
	}
	fr := p.slots[p.resident]
	fr.pins, fr.dirty = 1, false
	return fr
}

// admit makes fr, the first spare frame now filled with page id, resident.
func (p *Pool) admit(id PageID, fr *frame) {
	fr.id = id
	p.frames.set(id, fr)
	p.resident++
	p.policy.admit(id)
}

// release takes resident frame fr out of the pool: it trades slots with the
// last resident frame and so becomes the first spare one.
func (p *Pool) release(fr *frame) {
	p.frames[fr.id] = nil
	p.policy.remove(fr.id)
	p.resident--
	last := p.slots[p.resident]
	p.slots[fr.slot], p.slots[last.slot] = last, fr
	fr.slot, last.slot = last.slot, fr.slot
}

// makeRoom evicts until a frame slot is available.
func (p *Pool) makeRoom() error {
	for p.resident >= p.knobs.Pages {
		id, ok := p.policy.victim(p.pinned)
		if !ok {
			return fmt.Errorf("pager: pool of %d pages exhausted (all pinned)", p.knobs.Pages)
		}
		fr := p.frames[id]
		if fr.dirty {
			if err := p.f.WritePage(id, &fr.page); err != nil {
				return err
			}
			p.st.DirtyWritebacks++
			p.st.PagesWritten++
		}
		p.release(fr)
		p.st.Evictions++
	}
	return nil
}

// Flush writes back every dirty page (in ascending page order, for
// deterministic backend write sequences) without evicting.
func (p *Pool) Flush() error {
	for _, id := range p.heldIDs(true) {
		fr := p.frames[id]
		if err := p.f.WritePage(id, &fr.page); err != nil {
			return err
		}
		fr.dirty = false
		p.st.DirtyWritebacks++
		p.st.PagesWritten++
	}
	return nil
}

// Checkpoint makes the current state durable: flush dirty pages, sync,
// publish the working meta (roots, page count), sync again, then release
// the free-page quarantine. After Checkpoint returns, a crash reverts the
// file to exactly this state.
func (p *Pool) Checkpoint() error {
	if err := p.Flush(); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("pager: checkpoint data sync: %w", err)
	}
	p.st.Fsyncs++
	if err := p.f.Checkpoint(); err != nil {
		return err
	}
	p.st.Fsyncs++
	p.st.PagesWritten++ // the meta page
	// Quarantined pages are now unreferenced by any durable state.
	p.freeNow = append(p.freeNow, p.freeNext...)
	p.freeNext = p.freeNext[:0]
	slices.Sort(p.freeNow)
	slices.Reverse(p.freeNow)
	return nil
}
