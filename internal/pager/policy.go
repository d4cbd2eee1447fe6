package pager

// evictPolicy decides which resident page to evict. Implementations must
// be deterministic: victim order may depend only on the admit/touch/remove
// history, never on randomness — the virtual-clock benchmark requires
// identical counters on identical op sequences.
type evictPolicy interface {
	// admit records a page entering the pool.
	admit(id PageID)
	// touch records a hit on a resident page.
	touch(id PageID)
	// victim returns the next page to evict, skipping pages for which
	// pinned reports true. ok is false when every candidate is pinned.
	victim(pinned func(PageID) bool) (id PageID, ok bool)
	// remove records a page leaving the pool (evicted or freed).
	remove(id PageID)
}

// newPolicy builds the policy named by knobs (already validated).
func newPolicy(k PoolKnobs) evictPolicy {
	switch k.Policy {
	case "clock":
		return &clockPolicy{}
	case "2q":
		return newTwoQ(k.Pages)
	default:
		return &lruPolicy{ll: newIDList()}
	}
}

// ------------------------------------------------------------ ID list --

// idList is a recency-ordered set of page IDs: a doubly linked list whose
// nodes live in one slab and are addressed by index, with removed nodes
// chained for reuse, so a pool at steady state admits, touches and evicts
// without allocating. nodes[0] is the ring's sentinel (its zero value links
// to itself): nodes[0].next is the front, nodes[0].prev the back.
type idList struct {
	nodes []idNode
	free  int32        // head of the reuse chain through next; 0 = none
	pos   table[int32] // each ID's node; 0, the sentinel, = absent
	n     int          // IDs in the list
}

type idNode struct {
	prev, next int32
	id         PageID
}

func newIDList() idList { return idList{nodes: make([]idNode, 1)} }

func (l *idList) len() int { return l.n }

// pushFront adds id, which must not be in the list, at the front.
func (l *idList) pushFront(id PageID) {
	i := l.free
	if i != 0 {
		l.free = l.nodes[i].next
	} else {
		i = int32(len(l.nodes))
		l.nodes = append(l.nodes, idNode{})
	}
	l.nodes[i].id = id
	l.linkFront(i)
	l.pos.set(id, i)
	l.n++
}

func (l *idList) linkFront(i int32) {
	first := l.nodes[0].next
	l.nodes[i].prev, l.nodes[i].next = 0, first
	l.nodes[first].prev = i
	l.nodes[0].next = i
}

func (l *idList) unlink(i int32) {
	n := l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

// moveToFront makes id the most recent; a no-op when id is absent.
func (l *idList) moveToFront(id PageID) {
	if i := l.pos.at(id); i != 0 {
		l.unlink(i)
		l.linkFront(i)
	}
}

// remove drops id and reports whether it was in the list.
func (l *idList) remove(id PageID) bool {
	i := l.pos.at(id)
	if i == 0 {
		return false
	}
	l.unlink(i)
	l.nodes[i].next = l.free
	l.free = i
	l.pos[id] = 0
	l.n--
	return true
}

// back returns the least recent ID; the list must not be empty.
func (l *idList) back() PageID { return l.nodes[l.nodes[0].prev].id }

// oldest returns the ID nearest the back for which skip reports false.
func (l *idList) oldest(skip func(PageID) bool) (PageID, bool) {
	for i := l.nodes[0].prev; i != 0; i = l.nodes[i].prev {
		if id := l.nodes[i].id; !skip(id) {
			return id, true
		}
	}
	return NilPage, false
}

// ---------------------------------------------------------------- LRU --

// lruPolicy evicts the least recently used page.
type lruPolicy struct {
	ll idList // front = most recent
}

func (l *lruPolicy) admit(id PageID) { l.ll.pushFront(id) }

func (l *lruPolicy) touch(id PageID) { l.ll.moveToFront(id) }

func (l *lruPolicy) victim(pinned func(PageID) bool) (PageID, bool) { return l.ll.oldest(pinned) }

func (l *lruPolicy) remove(id PageID) { l.ll.remove(id) }

// -------------------------------------------------------------- CLOCK --

// clockPolicy is the classic second-chance ring: a hit sets the page's
// reference bit; the hand sweeps, clearing bits, and evicts the first
// unreferenced page it meets. Cheaper bookkeeping than LRU, coarser
// recency — the gap the cold-cache experiment surfaces.
type clockPolicy struct {
	ring  []PageID          // insertion ring; NilPage marks holes
	pages table[clockEntry] // by page number
	hand  int
}

// clockEntry is what the ring knows of one page.
type clockEntry struct {
	slot int32 // ring position + 1; 0 = not in the ring
	ref  bool  // the reference bit
}

func (c *clockPolicy) admit(id PageID) {
	// Always appended: holes are rare (remove punches them, the sweep
	// compacts them), and placement stays deterministic.
	c.ring = append(c.ring, id)
	c.pages.set(id, clockEntry{slot: int32(len(c.ring))})
}

func (c *clockPolicy) touch(id PageID) {
	if c.pages.at(id).slot != 0 {
		c.pages[id].ref = true
	}
}

func (c *clockPolicy) victim(pinned func(PageID) bool) (PageID, bool) {
	if len(c.ring) == 0 {
		return NilPage, false
	}
	// Two full sweeps suffice: the first clears reference bits, the
	// second must find an unreferenced unpinned page if one exists. Only
	// pages count towards them: compacting a hole passes none.
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
		if c.pages[id].ref {
			c.pages[id].ref = false
			c.hand++
			continue
		}
		return id, true
	}
	return NilPage, false
}

// compactHole removes the hole under the hand.
func (c *clockPolicy) compactHole() {
	c.ring = append(c.ring[:c.hand], c.ring[c.hand+1:]...)
	for i := c.hand; i < len(c.ring); i++ {
		if c.ring[i] != NilPage {
			c.pages[c.ring[i]].slot = int32(i) + 1
		}
	}
}

func (c *clockPolicy) remove(id PageID) {
	if e := c.pages.at(id); e.slot != 0 {
		c.ring[e.slot-1] = NilPage // punch a hole; the sweep compacts it
		c.pages[id] = clockEntry{}
	}
}

// ----------------------------------------------------------------- 2Q --

// twoQPolicy is full 2Q: first-touch pages enter a FIFO probation queue
// (A1in); a second touch promotes to the protected LRU (Am). Pages evicted
// out of probation leave a ghost entry (A1out, IDs only) — re-admission of
// a ghosted page goes straight to Am, which is how 2Q recognizes a hot
// page whose re-reference distance exceeds the probation queue. Victims
// come from A1in while it exceeds its share, else from Am's tail. Scan
// traffic (one-touch pages) therefore washes through probation without
// evicting the hot set — the property that separates it from plain LRU on
// mixed workloads.
type twoQPolicy struct {
	a1    idList // FIFO: front = newest
	am    idList // LRU: front = most recent
	ghost idList // A1out: front = newest ghost (IDs of pages evicted from a1)
	// a1Max is the probation share of the pool (capacity / 4, min 1);
	// ghostMax bounds A1out (2x capacity — ghosts are 4-byte IDs).
	a1Max    int
	ghostMax int
}

func newTwoQ(capacity int) *twoQPolicy {
	return &twoQPolicy{
		a1:       newIDList(),
		am:       newIDList(),
		ghost:    newIDList(),
		a1Max:    max(capacity/4, 1),
		ghostMax: 2 * capacity,
	}
}

func (q *twoQPolicy) admit(id PageID) {
	if q.ghost.remove(id) {
		// Seen recently: the page is hot with a long re-reference
		// distance. Skip probation, go straight to the protected queue.
		q.am.pushFront(id)
		return
	}
	q.a1.pushFront(id)
}

func (q *twoQPolicy) touch(id PageID) {
	if q.a1.remove(id) {
		q.am.pushFront(id)
		return
	}
	q.am.moveToFront(id)
}

func (q *twoQPolicy) victim(pinned func(PageID) bool) (PageID, bool) {
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

func (q *twoQPolicy) remove(id PageID) {
	if !q.a1.remove(id) {
		q.am.remove(id)
		return
	}
	// Leaving probation without a promotion: remember the page in A1out
	// so a prompt return is recognized as a hot page.
	q.ghost.pushFront(id)
	for q.ghost.len() > q.ghostMax {
		q.ghost.remove(q.ghost.back())
	}
}
