package pager

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file holds the pool's model test: the table-indexed Pool against
// refPool, the pool and policies as they were when every page-keyed
// structure was a map (copied from cb61011, names prefixed, comments
// dropped). The two must agree on everything observable — counters, victim
// order, free set and the exact sequence of backend writes and syncs.

// logBackend records what reaches the backend: each write as its offset and
// a checksum of its bytes, each sync as offset -1.
type logBackend struct {
	*MemBackend
	log []writeRec
}

type writeRec struct {
	off int64
	sum uint32
}

func (b *logBackend) WriteAt(p []byte, off int64) (int, error) {
	b.log = append(b.log, writeRec{off, crc32.ChecksumIEEE(p)})
	return b.MemBackend.WriteAt(p, off)
}

func (b *logBackend) Sync() error {
	b.log = append(b.log, writeRec{off: -1})
	return nil
}

// victimLog records the victims a pool's policy hands out.
type victimLog struct {
	evictPolicy
	seq []PageID
}

func (v *victimLog) victim(pinned func(PageID) bool) (PageID, bool) {
	id, ok := v.evictPolicy.victim(pinned)
	if ok {
		v.seq = append(v.seq, id)
	}
	return id, ok
}

// pin is one pin the model holds, on both pools.
type pin struct {
	id        PageID
	got, want *Page
}

// poolModel drives a Pool and a refPool through the same ops.
type poolModel struct {
	t      *testing.T
	rng    *rand.Rand
	got    *Pool
	want   *refPool
	gotB   *logBackend
	wantB  *logBackend
	victim *victimLog
	live   []PageID // allocated and not freed
	held   []pin
	reused int // allocs that took a freed page
}

func newPoolModel(t *testing.T, knobs PoolKnobs, seed int64) *poolModel {
	m := &poolModel{t: t, rng: rand.New(rand.NewSource(seed))}
	m.gotB = &logBackend{MemBackend: NewMemBackend()}
	m.wantB = &logBackend{MemBackend: NewMemBackend()}
	gf, err := Create(m.gotB)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := Create(m.wantB)
	if err != nil {
		t.Fatal(err)
	}
	m.got, m.want = NewPool(gf, knobs), newRefPool(wf, knobs)
	m.victim = &victimLog{evictPolicy: m.got.policy}
	m.got.policy = m.victim
	return m
}

// sameErr fails the test unless both pools succeeded or both refused.
func (m *poolModel) sameErr(op string, got, want error) bool {
	m.t.Helper()
	if (got == nil) != (want == nil) {
		m.t.Fatalf("%s: pool says %v, reference says %v", op, got, want)
	}
	return got == nil
}

// keep holds the pin just taken, or — most of the time, and always once the
// pins held could fill the pool — gives it straight back.
func (m *poolModel) keep(p pin) {
	m.held = append(m.held, p)
	if len(m.held) > m.got.knobs.Pages || m.rng.Intn(3) != 0 {
		m.unpin(len(m.held) - 1)
	}
}

// unpin releases held pin i; half the time the page is modified first.
func (m *poolModel) unpin(i int) {
	p := m.held[i]
	m.held = slices.Delete(m.held, i, i+1)
	dirty := m.rng.Intn(2) == 0
	if dirty {
		next := PageID(m.rng.Uint32())
		p.got.SetNext(next)
		p.want.SetNext(next)
	}
	m.got.Unpin(p.id, dirty)
	m.want.Unpin(p.id, dirty)
}

// step runs one random op on both pools.
func (m *poolModel) step() string {
	switch op := m.rng.Intn(100); {
	case op < 52:
		id := PageID(1 << 31)
		switch pick := m.rng.Intn(20); {
		case pick > 10 && len(m.live) > 0:
			id = m.live[m.rng.Intn(len(m.live))]
		case pick > 0 && len(m.live) > 0: // a working set the pool can hold
			id = m.live[max(0, len(m.live)-1-m.rng.Intn(m.got.knobs.Pages))]
		case pick > 0:
			id = PageID(m.got.f.PageCount()) // just past the end
		}
		got, gerr := m.got.Get(id)
		want, werr := m.want.Get(id)
		if m.sameErr("get", gerr, werr) {
			if !slices.Equal(got.Bytes(), want.Bytes()) {
				m.t.Fatalf("get %d: page images differ", id)
			}
			m.keep(pin{id, got, want})
		}
		return fmt.Sprint("get ", id)
	case op < 62:
		if len(m.held) > 0 {
			m.unpin(m.rng.Intn(len(m.held)))
		}
		return "unpin"
	case op < 79:
		count := m.got.f.PageCount()
		got, gid, gerr := m.got.Alloc(TypeLeaf)
		want, wid, werr := m.want.Alloc(TypeLeaf)
		if gid != wid {
			m.t.Fatalf("alloc: pool issued page %d, reference %d", gid, wid)
		}
		if m.sameErr("alloc", gerr, werr) {
			if uint32(gid) < count {
				m.reused++
			}
			m.live = append(m.live, gid)
			m.keep(pin{gid, got, want})
		}
		return fmt.Sprint("alloc ", gid)
	case op < 91:
		if len(m.live) == 0 {
			return "free (nothing live)"
		}
		i := m.rng.Intn(len(m.live))
		id := m.live[i]
		if m.sameErr("free", m.got.Free(id), m.want.Free(id)) { // refused while pinned
			m.live = slices.Delete(m.live, i, i+1)
		}
		return fmt.Sprint("free ", id)
	case op < 93:
		m.sameErr("flush", m.got.Flush(), m.want.Flush())
		return "flush"
	case op < 95:
		if m.rng.Intn(2) == 0 {
			for len(m.held) > 0 {
				m.unpin(0)
			}
		}
		m.sameErr("drop cache", m.got.DropCache(), m.want.DropCache()) // refused while pinned
		return "drop cache"
	default:
		m.sameErr("checkpoint", m.got.Checkpoint(), m.want.Checkpoint())
		return "checkpoint"
	}
}

// check compares everything the two pools let an observer see.
func (m *poolModel) check(op string) {
	m.t.Helper()
	if got, want := m.got.Counters(), m.want.st; got != want {
		m.t.Fatalf("after %s: counters %+v, reference %+v", op, got, want)
	}
	if !slices.Equal(m.victim.seq, m.want.victims) {
		m.t.Fatalf("after %s: victim sequence diverged:\n got %v\nwant %v", op, m.victim.seq, m.want.victims)
	}
	if !slices.Equal(m.gotB.log, m.wantB.log) {
		m.t.Fatalf("after %s: backend write log diverged (%d vs %d records)", op, len(m.gotB.log), len(m.wantB.log))
	}
	if got, want := m.got.FreePages(), m.want.FreePages(); !slices.Equal(got, want) {
		m.t.Fatalf("after %s: free pages %v, reference %v", op, got, want)
	}
	if got, want := m.got.f.PageCount(), m.want.f.PageCount(); got != want {
		m.t.Fatalf("after %s: page count %d, reference %d", op, got, want)
	}
	if m.got.resident != len(m.want.frames) {
		m.t.Fatalf("after %s: %d pages resident, reference %d", op, m.got.resident, len(m.want.frames))
	}
	checkFrames(m.t, m.got)
	for _, n := range tableSizes(m.got) {
		if n > int(m.got.f.PageCount()) {
			m.t.Fatalf("after %s: a table of %d entries on a file of %d pages", op, n, m.got.f.PageCount())
		}
	}
	for id, want := range m.want.frames {
		got := m.got.frames.at(id)
		if got == nil || got.id != id || got.pins != want.pins || got.dirty != want.dirty {
			m.t.Fatalf("after %s: page %d is %+v, reference pins=%d dirty=%v", op, id, got, want.pins, want.dirty)
		}
	}
}

func TestPoolMatchesMapReference(t *testing.T) {
	for _, policy := range []string{"lru", "clock", "2q"} {
		for i, pages := range []int{8, 16, 32} {
			t.Run(fmt.Sprintf("%s-%d", policy, pages), func(t *testing.T) {
				m := newPoolModel(t, PoolKnobs{Pages: pages, Policy: policy}, int64(20+i+10*len(policy)))
				for step := 0; step < 6000; step++ {
					m.check(m.step())
				}
				for len(m.held) > 0 {
					m.unpin(0)
				}
				m.sameErr("checkpoint", m.got.Checkpoint(), m.want.Checkpoint())
				m.check("final checkpoint")
				if c := m.got.Counters(); c.Hits < 500 || c.Evictions < 500 || c.DirtyWritebacks < 500 || m.reused < 100 {
					t.Fatalf("run exercised too little: %+v, %d pages reused", c, m.reused)
				}
				if !slices.EqualFunc(m.gotB.chunks, m.wantB.chunks, slices.Equal[[]byte]) || m.gotB.size != m.wantB.size {
					t.Fatal("files differ")
				}
			})
		}
	}
}

// ------------------------------------------- the reference, map-keyed --

type refPolicy interface {
	admit(id PageID)
	touch(id PageID)
	victim(pinned func(PageID) bool) (id PageID, ok bool)
	remove(id PageID)
}

func newRefPolicy(k PoolKnobs) refPolicy {
	switch k.Policy {
	case "clock":
		return newRefClock()
	case "2q":
		return newRefTwoQ(k.Pages)
	default:
		return newRefLRU()
	}
}

type refIDList struct {
	nodes []refIDNode
	free  int32 // head of the reuse chain through next; 0 = none
	pos   map[PageID]int32
}

type refIDNode struct {
	prev, next int32
	id         PageID
}

func newRefIDList() refIDList {
	return refIDList{nodes: make([]refIDNode, 1), pos: make(map[PageID]int32)}
}

func (l *refIDList) len() int { return len(l.pos) }

func (l *refIDList) pushFront(id PageID) {
	i := l.free
	if i != 0 {
		l.free = l.nodes[i].next
	} else {
		i = int32(len(l.nodes))
		l.nodes = append(l.nodes, refIDNode{})
	}
	l.nodes[i].id = id
	l.linkFront(i)
	l.pos[id] = i
}

func (l *refIDList) linkFront(i int32) {
	first := l.nodes[0].next
	l.nodes[i].prev, l.nodes[i].next = 0, first
	l.nodes[first].prev = i
	l.nodes[0].next = i
}

func (l *refIDList) unlink(i int32) {
	n := l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

func (l *refIDList) moveToFront(id PageID) {
	if i, ok := l.pos[id]; ok {
		l.unlink(i)
		l.linkFront(i)
	}
}

func (l *refIDList) remove(id PageID) bool {
	i, ok := l.pos[id]
	if !ok {
		return false
	}
	l.unlink(i)
	l.nodes[i].next = l.free
	l.free = i
	delete(l.pos, id)
	return true
}

func (l *refIDList) back() PageID { return l.nodes[l.nodes[0].prev].id }

func (l *refIDList) oldest(skip func(PageID) bool) (PageID, bool) {
	for i := l.nodes[0].prev; i != 0; i = l.nodes[i].prev {
		if id := l.nodes[i].id; !skip(id) {
			return id, true
		}
	}
	return NilPage, false
}

type refLRU struct {
	ll refIDList // front = most recent
}

func newRefLRU() *refLRU { return &refLRU{ll: newRefIDList()} }

func (l *refLRU) admit(id PageID) { l.ll.pushFront(id) }

func (l *refLRU) touch(id PageID) { l.ll.moveToFront(id) }

func (l *refLRU) victim(pinned func(PageID) bool) (PageID, bool) { return l.ll.oldest(pinned) }

func (l *refLRU) remove(id PageID) { l.ll.remove(id) }

type refClock struct {
	ring []PageID // insertion ring; NilPage marks holes
	ref  map[PageID]bool
	pos  map[PageID]int
	hand int
}

func newRefClock() *refClock {
	return &refClock{ref: make(map[PageID]bool), pos: make(map[PageID]int)}
}

func (c *refClock) admit(id PageID) {
	c.pos[id] = len(c.ring)
	c.ring = append(c.ring, id)
	c.ref[id] = false
}

func (c *refClock) touch(id PageID) {
	if _, ok := c.pos[id]; ok {
		c.ref[id] = true
	}
}

func (c *refClock) victim(pinned func(PageID) bool) (PageID, bool) {
	if len(c.ring) == 0 {
		return NilPage, false
	}
	for sweep := 0; sweep < 2*len(c.ring); {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		id := c.ring[c.hand]
		if id == NilPage {
			c.compactHole()
			continue
		}
		sweep++
		if pinned(id) {
			c.hand++
			continue
		}
		if c.ref[id] {
			c.ref[id] = false
			c.hand++
			continue
		}
		return id, true
	}
	return NilPage, false
}

func (c *refClock) compactHole() {
	c.ring = append(c.ring[:c.hand], c.ring[c.hand+1:]...)
	for i := c.hand; i < len(c.ring); i++ {
		if c.ring[i] != NilPage {
			c.pos[c.ring[i]] = i
		}
	}
}

func (c *refClock) remove(id PageID) {
	if i, ok := c.pos[id]; ok {
		c.ring[i] = NilPage // punch a hole; the sweep compacts it
		delete(c.pos, id)
		delete(c.ref, id)
	}
}

type refTwoQ struct {
	a1       refIDList // FIFO: front = newest
	am       refIDList // LRU: front = most recent
	ghost    refIDList // A1out: front = newest ghost (IDs of pages evicted from a1)
	a1Max    int
	ghostMax int
}

func newRefTwoQ(capacity int) *refTwoQ {
	a1Max := capacity / 4
	if a1Max < 1 {
		a1Max = 1
	}
	return &refTwoQ{
		a1:       newRefIDList(),
		am:       newRefIDList(),
		ghost:    newRefIDList(),
		a1Max:    a1Max,
		ghostMax: 2 * capacity,
	}
}

func (q *refTwoQ) admit(id PageID) {
	if q.ghost.remove(id) {
		q.am.pushFront(id)
		return
	}
	q.a1.pushFront(id)
}

func (q *refTwoQ) touch(id PageID) {
	if q.a1.remove(id) {
		q.am.pushFront(id)
		return
	}
	q.am.moveToFront(id)
}

func (q *refTwoQ) victim(pinned func(PageID) bool) (PageID, bool) {
	if q.a1.len() > q.a1Max {
		if id, ok := q.a1.oldest(pinned); ok {
			return id, true
		}
	}
	if id, ok := q.am.oldest(pinned); ok {
		return id, true
	}
	return q.a1.oldest(pinned)
}

func (q *refTwoQ) remove(id PageID) {
	if !q.a1.remove(id) {
		q.am.remove(id)
		return
	}
	q.ghost.pushFront(id)
	for q.ghost.len() > q.ghostMax {
		q.ghost.remove(q.ghost.back())
	}
}

type refFrame struct {
	page  Page
	pins  int
	dirty bool
}

type refPool struct {
	f       *File
	knobs   PoolKnobs
	frames  map[PageID]*refFrame
	spare   []*refFrame // frames out of the pool, contents dead
	policy  refPolicy
	pinned  func(PageID) bool
	st      Counters
	victims []PageID // every page makeRoom evicted, in order

	freeNow  []PageID // reusable, ascending (pop from the front)
	freeNext []PageID // freed since last checkpoint, quarantined
}

func newRefPool(f *File, knobs PoolKnobs) *refPool {
	knobs = knobs.Validate()
	p := &refPool{
		f:      f,
		knobs:  knobs,
		frames: make(map[PageID]*refFrame, knobs.Pages),
		spare:  make([]*refFrame, 0, knobs.Pages),
		policy: newRefPolicy(knobs),
	}
	p.pinned = func(id PageID) bool {
		fr := p.frames[id]
		return fr == nil || fr.pins > 0
	}
	return p
}

func (p *refPool) Get(id PageID) (*Page, error) {
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

func (p *refPool) Unpin(id PageID, dirty bool) {
	fr, ok := p.frames[id]
	if !ok || fr.pins == 0 {
		panic(fmt.Sprintf("pager: unpin of unpinned page %d", id))
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
}

func (p *refPool) Alloc(t PageType) (*Page, PageID, error) {
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

func (p *refPool) Free(id PageID) error {
	if fr, ok := p.frames[id]; ok {
		if fr.pins > 0 {
			return fmt.Errorf("pager: freeing pinned page %d", id)
		}
		p.release(id, fr)
	}
	p.freeNext = append(p.freeNext, id)
	return nil
}

func (p *refPool) FreePages() []PageID {
	out := make([]PageID, 0, len(p.freeNow)+len(p.freeNext))
	out = append(out, p.freeNow...)
	out = append(out, p.freeNext...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *refPool) DropCache() error {
	for _, fr := range p.frames {
		if fr.pins > 0 {
			return fmt.Errorf("pager: dropping cache with pinned pages")
		}
	}
	if err := p.Flush(); err != nil {
		return err
	}
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

func (p *refPool) takeFrame() *refFrame {
	n := len(p.spare)
	if n == 0 {
		return &refFrame{pins: 1}
	}
	fr := p.spare[n-1]
	p.spare = p.spare[:n-1]
	fr.pins, fr.dirty = 1, false
	return fr
}

func (p *refPool) release(id PageID, fr *refFrame) {
	delete(p.frames, id)
	p.policy.remove(id)
	p.spare = append(p.spare, fr)
}

func (p *refPool) makeRoom() error {
	for len(p.frames) >= p.knobs.Pages {
		id, ok := p.policy.victim(p.pinned)
		if !ok {
			return fmt.Errorf("pager: pool of %d pages exhausted (all pinned)", p.knobs.Pages)
		}
		p.victims = append(p.victims, id)
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

func (p *refPool) Flush() error {
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

func (p *refPool) Checkpoint() error {
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
	p.freeNow = append(p.freeNow, p.freeNext...)
	p.freeNext = p.freeNext[:0]
	sort.Slice(p.freeNow, func(i, j int) bool { return p.freeNow[i] < p.freeNow[j] })
	return nil
}
