package pager

import (
	"fmt"
	"sort"
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

// frame is one cached page. Frames are recycled: one that leaves the pool
// (evicted, freed, or never filled because its read failed) backs the next
// page admitted, so a *Page is the caller's only while it is pinned.
type frame struct {
	page  Page
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
	frames map[PageID]*frame
	spare  []*frame // frames out of the pool, contents dead
	policy evictPolicy
	// pinned is what policy.victim skips by; built once so that a miss
	// allocates no closure.
	pinned func(PageID) bool
	st     Counters

	freeNow  []PageID // reusable, ascending (pop from the front)
	freeNext []PageID // freed since last checkpoint, quarantined
}

// NewPool wraps f with a buffer pool.
func NewPool(f *File, knobs PoolKnobs) *Pool {
	knobs = knobs.Validate()
	p := &Pool{
		f:      f,
		knobs:  knobs,
		frames: make(map[PageID]*frame, knobs.Pages),
		spare:  make([]*frame, 0, knobs.Pages),
		policy: newPolicy(knobs),
	}
	p.pinned = func(id PageID) bool {
		fr := p.frames[id]
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

// Get returns page id pinned; the caller must Unpin it. A miss evicts (and
// writes back) per the pool's policy, reads the page from the file, and
// verifies its checksum.
func (p *Pool) Get(id PageID) (*Page, error) {
	if fr, ok := p.frames[id]; ok {
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
		p.spare = append(p.spare, fr)
		return nil, err
	}
	p.st.PagesRead++
	p.frames[id] = fr
	p.policy.admit(id)
	return &fr.page, nil
}

// Unpin releases one pin on id; dirty marks the page modified so eviction
// and Flush write it back.
func (p *Pool) Unpin(id PageID, dirty bool) {
	fr, ok := p.frames[id]
	if !ok || fr.pins == 0 {
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
	if len(p.freeNow) > 0 {
		id = p.freeNow[0]
		p.freeNow = p.freeNow[1:]
	} else {
		id = PageID(p.f.working.pageCount)
		p.f.working.pageCount++
	}
	fr := p.takeFrame()
	fr.dirty = true
	fr.page.Reset(id, t)
	p.frames[id] = fr
	p.policy.admit(id)
	return &fr.page, id, nil
}

// Free returns page id to the free-list. The page must be unpinned; any
// cached dirty state is discarded (its content is dead). The page enters
// the quarantined set and becomes reusable only after the next checkpoint
// — until then the published checkpoint may still reference it, and its
// bytes must survive a crash.
func (p *Pool) Free(id PageID) error {
	if fr, ok := p.frames[id]; ok {
		if fr.pins > 0 {
			return fmt.Errorf("pager: freeing pinned page %d", id)
		}
		p.release(id, fr)
	}
	p.freeNext = append(p.freeNext, id)
	return nil
}

// FreePages returns the free set (reusable + quarantined), ascending —
// the consistency-audit view of the free-list.
func (p *Pool) FreePages() []PageID {
	out := make([]PageID, 0, len(p.freeNow)+len(p.freeNext))
	out = append(out, p.freeNow...)
	out = append(out, p.freeNext...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RebuildFreeList derives the free-list from reachability: every
// allocatable page not in reachable becomes reusable. Structures call this
// after reopening a file — the free-list can then never disagree with the
// data that survived, regardless of where a crash landed.
func (p *Pool) RebuildFreeList(reachable []PageID) {
	live := make(map[PageID]bool, len(reachable))
	for _, id := range reachable {
		live[id] = true
	}
	p.freeNow = p.freeNow[:0]
	p.freeNext = p.freeNext[:0]
	for id := uint32(2); id < p.f.working.pageCount; id++ {
		if !live[PageID(id)] {
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
	state := make(map[PageID]int, p.f.working.pageCount)
	for _, id := range reachable {
		if id < 2 || uint32(id) >= p.f.working.pageCount {
			return fmt.Errorf("pager: reachable page %d out of bounds [2,%d)", id, p.f.working.pageCount)
		}
		if state[id] == live {
			return fmt.Errorf("pager: page %d referenced twice", id)
		}
		state[id] = live
	}
	for _, id := range p.FreePages() {
		if state[id] == live {
			return fmt.Errorf("pager: page %d is both reachable and free", id)
		}
		if state[id] == free {
			return fmt.Errorf("pager: page %d is on the free-list twice", id)
		}
		state[id] = free
	}
	for id := uint32(2); id < p.f.working.pageCount; id++ {
		if state[PageID(id)] == 0 {
			return fmt.Errorf("pager: page %d is neither reachable nor free (orphan)", id)
		}
	}
	return nil
}

// DropCache writes back dirty pages and empties the pool — the cold-cache
// experiment hook. Fails if any page is pinned.
func (p *Pool) DropCache() error {
	for _, fr := range p.frames {
		if fr.pins > 0 {
			return fmt.Errorf("pager: dropping cache with pinned pages")
		}
	}
	if err := p.Flush(); err != nil {
		return err
	}
	// Sorted removal keeps policy-internal state (e.g. 2Q's ghost queue)
	// deterministic — map iteration order must never leak into results.
	ids := make([]PageID, 0, len(p.frames))
	for id := range p.frames {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p.release(id, p.frames[id])
	}
	return nil
}

// takeFrame returns a frame pinned once and clean, its page image
// unspecified: the caller overwrites all of it (ReadPage) or resets it. A
// new frame is allocated only while the pool has never been full — after
// makeRoom fewer than knobs.Pages frames are resident, and an empty spare
// stack means those are all the frames there are.
func (p *Pool) takeFrame() *frame {
	n := len(p.spare)
	if n == 0 {
		return &frame{pins: 1}
	}
	fr := p.spare[n-1]
	p.spare = p.spare[:n-1]
	fr.pins, fr.dirty = 1, false
	return fr
}

// release takes resident page id out of the pool and keeps its frame for
// the next admission.
func (p *Pool) release(id PageID, fr *frame) {
	delete(p.frames, id)
	p.policy.remove(id)
	p.spare = append(p.spare, fr)
}

// makeRoom evicts until a frame slot is available.
func (p *Pool) makeRoom() error {
	for len(p.frames) >= p.knobs.Pages {
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
		p.release(id, fr)
		p.st.Evictions++
	}
	return nil
}

// Flush writes back every dirty page (in ascending page order, for
// deterministic backend write sequences) without evicting.
func (p *Pool) Flush() error {
	ids := make([]PageID, 0, len(p.frames))
	for id, fr := range p.frames {
		if fr.dirty {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
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
	sort.Slice(p.freeNow, func(i, j int) bool { return p.freeNow[i] < p.freeNow[j] })
	return nil
}
