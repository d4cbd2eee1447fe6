// Package diskbtree implements a disk-resident B+ tree over the pager's
// slotted pages: fixed 8-byte keys and values in leaf pages chained for
// range scans, separator/child cells in inner pages, and a buffer pool
// between the tree and the page file. It is an index.Measured, so
// core.NewIndexSUT adapts it into the benchmark unchanged — the only
// difference from the in-memory baselines is that its work is dominated by
// page I/O, which the pool counts and core's price table prices.
package diskbtree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/index"
	"repro/internal/pager"
)

const (
	leafCellSize  = 16 // key(8) + value(8)
	innerCellSize = 12 // separator key(8) + child page(4)

	// rootSlot and countSlot are the File root-pointer slots the tree
	// owns: the root page, and the entry count (persisted so Len survives
	// reopen without a full walk).
	rootSlot  = 0
	countSlot = 1

	// bulk-load fill targets: ~90% so post-load inserts do not split on
	// the first touch of every page.
	leafFillCells  = (pager.PageSize - pager.HeaderSize) * 9 / 10 / (leafCellSize + 4)
	innerFillCells = (pager.PageSize - pager.HeaderSize) * 9 / 10 / (innerCellSize + 4)
)

// Tree is a paged B+ tree. Not safe for concurrent use (the benchmark
// driver serializes per SUT). Pager failures (checksum mismatches, backend
// errors) panic: the Ordered interface has no error channel, and a failed
// page read under a benchmark is corruption, not a recoverable condition.
type Tree struct {
	pool  *pager.Pool
	count int
	index.Counters
	path []pager.PageID // Insert's root-to-parent scratch, kept across calls
}

// New opens (or initializes) a B+ tree on pool. A fresh file gets an empty
// leaf as root; an existing file resumes from its published root.
func New(pool *pager.Pool) *Tree {
	t := &Tree{pool: pool}
	f := pool.File()
	if f.Root(rootSlot) == pager.NilPage {
		pg, id, err := pool.Alloc(pager.TypeLeaf)
		if err != nil {
			panic(err)
		}
		_ = pg
		pool.Unpin(id, true)
		f.SetRoot(rootSlot, id)
		f.SetRoot(countSlot, 0)
	}
	t.count = int(f.Root(countSlot))
	return t
}

// Pool exposes the tree's buffer pool (for counters and checkpoints).
func (t *Tree) Pool() *pager.Pool { return t.pool }

// Name implements index.Ordered.
func (t *Tree) Name() string { return "disk-btree" }

// Len implements index.Ordered.
func (t *Tree) Len() int { return t.count }

func (t *Tree) setCount(n int) {
	t.count = n
	t.pool.File().SetRoot(countSlot, pager.PageID(n))
}

func (t *Tree) get(id pager.PageID) *pager.Page {
	pg, err := t.pool.Get(id)
	if err != nil {
		panic(fmt.Sprintf("diskbtree: %v", err))
	}
	return pg
}

func cellKey(cell []byte) uint64 { return binary.LittleEndian.Uint64(cell) }

func leafCell(key, val uint64) []byte {
	var c [leafCellSize]byte
	binary.LittleEndian.PutUint64(c[0:], key)
	binary.LittleEndian.PutUint64(c[8:], val)
	return c[:]
}

func leafVal(cell []byte) uint64 { return binary.LittleEndian.Uint64(cell[8:]) }

func innerCell(key uint64, child pager.PageID) []byte {
	var c [innerCellSize]byte
	binary.LittleEndian.PutUint64(c[0:], key)
	binary.LittleEndian.PutUint32(c[8:], uint32(child))
	return c[:]
}

func innerChild(cell []byte) pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(cell[8:]))
}

// findSlot binary-searches pg's cells (sorted by leading 8-byte key) and
// returns the first slot with key >= target, plus whether it is an exact
// match. Comparisons are charged to Stats.Compares.
func (t *Tree) findSlot(pg *pager.Page, key uint64) (int, bool) {
	lo, hi := 0, pg.NumCells()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t.St.Compares++
		k := cellKey(pg.Cell(mid))
		switch {
		case k < key:
			lo = mid + 1
		case k > key:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// childFor returns the child of inner page pg covering key: the child of
// the largest separator <= key, or the leftmost child (header Next) when
// key precedes every separator. slot is the separator's cell index, -1 for
// the leftmost child.
func (t *Tree) childFor(pg *pager.Page, key uint64) (child pager.PageID, slot int) {
	i, eq := t.findSlot(pg, key)
	if eq {
		return innerChild(pg.Cell(i)), i
	}
	if i == 0 {
		return pg.Next(), -1
	}
	return innerChild(pg.Cell(i - 1)), i - 1
}

// descend walks from the root to the leaf covering key. The leaf is
// returned pinned; inner pages along the way are unpinned before return.
// When path is non-nil, the page IDs from root to the leaf's parent are
// appended to it (for split propagation).
func (t *Tree) descend(key uint64, path *[]pager.PageID) (*pager.Page, pager.PageID) {
	id := t.pool.File().Root(rootSlot)
	for {
		pg := t.get(id)
		if pg.Type() == pager.TypeLeaf {
			return pg, id
		}
		child, _ := t.childFor(pg, key)
		t.pool.Unpin(id, false)
		if path != nil {
			*path = append(*path, id)
		}
		id = child
	}
}

// Get implements index.Ordered.
func (t *Tree) Get(key uint64) (uint64, bool) {
	t.St.Searches++
	pg, id := t.descend(key, nil)
	defer t.pool.Unpin(id, false)
	i, ok := t.findSlot(pg, key)
	if !ok {
		return 0, false
	}
	return leafVal(pg.Cell(i)), true
}

// Insert implements index.Ordered.
func (t *Tree) Insert(key, value uint64) {
	t.path = t.path[:0]
	pg, id := t.descend(key, &t.path)
	i, ok := t.findSlot(pg, key)
	if ok {
		pg.SetCell(i, leafCell(key, value))
		t.pool.Unpin(id, true)
		return
	}
	if pg.Insert(i, leafCell(key, value)) {
		t.pool.Unpin(id, true)
		t.setCount(t.count + 1)
		return
	}
	// Leaf full: split, then place the new cell on the correct side.
	sep, right, rightID := t.splitLeaf(pg)
	target := pg
	if key >= sep {
		target = right
	}
	j, _ := t.findSlot(target, key)
	if !target.Insert(j, leafCell(key, value)) {
		panic("diskbtree: cell does not fit in fresh split half")
	}
	t.pool.Unpin(id, true)
	t.pool.Unpin(rightID, true)
	t.setCount(t.count + 1)
	t.propagate(t.path, sep, rightID)
}

// splitLeaf moves the upper half of left (pinned, full) into a fresh right
// sibling and links the leaf chain. Both pages stay pinned (left by the
// caller's pin, right by Alloc); the caller unpins both. Returns the
// separator (right's first key), the pinned right page, and its ID.
func (t *Tree) splitLeaf(left *pager.Page) (uint64, *pager.Page, pager.PageID) {
	t.St.Splits++
	right, rightID, err := t.pool.Alloc(pager.TypeLeaf)
	if err != nil {
		panic(fmt.Sprintf("diskbtree: %v", err))
	}
	n := left.NumCells()
	mid := n / 2
	for i := mid; i < n; i++ {
		if !right.Insert(right.NumCells(), left.Cell(i)) {
			panic("diskbtree: split overflow")
		}
	}
	for i := n - 1; i >= mid; i-- {
		left.Delete(i)
	}
	right.SetNext(left.Next())
	left.SetNext(rightID)
	return cellKey(right.Cell(0)), right, rightID
}

// propagate inserts the separator/child pair produced by a split into the
// parent, splitting inner pages (and ultimately the root) as needed. path
// holds the page IDs from the root down to the split page's parent.
func (t *Tree) propagate(path []pager.PageID, sep uint64, rightID pager.PageID) {
	for level := len(path) - 1; level >= 0; level-- {
		id := path[level]
		pg := t.get(id)
		i, _ := t.findSlot(pg, sep)
		if pg.Insert(i, innerCell(sep, rightID)) {
			t.pool.Unpin(id, true)
			return
		}
		// Inner page full: split it. The median separator moves up.
		sep, rightID = t.splitInner(pg, i, sep, rightID)
		t.pool.Unpin(id, true)
	}
	// Split reached the root: grow the tree by one level.
	root, rootID, err := t.pool.Alloc(pager.TypeInner)
	if err != nil {
		panic(fmt.Sprintf("diskbtree: %v", err))
	}
	oldRoot := t.pool.File().Root(rootSlot)
	root.SetNext(oldRoot)
	if !root.Insert(0, innerCell(sep, rightID)) {
		panic("diskbtree: root cell does not fit")
	}
	t.pool.Unpin(rootID, true)
	t.pool.File().SetRoot(rootSlot, rootID)
}

// splitInner splits full inner page left, inserting (sep, rightID) at slot
// i as part of the split. Returns the separator and page promoted to the
// parent. The median key moves up (it is not duplicated into either half).
func (t *Tree) splitInner(left *pager.Page, i int, sep uint64, rightID pager.PageID) (uint64, pager.PageID) {
	t.St.Splits++
	// Materialize the full ordered cell list including the pending entry.
	n := left.NumCells()
	cells := make([][]byte, 0, n+1)
	for j := 0; j < n; j++ {
		c := make([]byte, innerCellSize)
		copy(c, left.Cell(j))
		cells = append(cells, c)
	}
	pending := make([]byte, innerCellSize)
	copy(pending, innerCell(sep, rightID))
	cells = append(cells, nil)
	copy(cells[i+1:], cells[i:])
	cells[i] = pending

	mid := len(cells) / 2
	upKey := cellKey(cells[mid])
	upChild := innerChild(cells[mid])

	newRight, newRightID, err := t.pool.Alloc(pager.TypeInner)
	if err != nil {
		panic(fmt.Sprintf("diskbtree: %v", err))
	}
	newRight.SetNext(upChild) // median's child becomes right's leftmost
	for _, c := range cells[mid+1:] {
		if !newRight.Insert(newRight.NumCells(), c) {
			panic("diskbtree: inner split overflow")
		}
	}
	// Rebuild left with the lower half.
	leftmost := left.Next()
	leftID := left.ID()
	left.Reset(leftID, pager.TypeInner)
	left.SetNext(leftmost)
	for j, c := range cells[:mid] {
		if !left.Insert(j, c) {
			panic("diskbtree: inner split overflow")
		}
	}
	t.pool.Unpin(newRightID, true)
	return upKey, newRightID
}

// Delete implements index.Ordered. Leaves are never merged or rebalanced
// (the classic lazy scheme: pages reclaim space on reuse, and the
// benchmark workloads delete far less than they insert).
func (t *Tree) Delete(key uint64) bool {
	pg, id := t.descend(key, nil)
	i, ok := t.findSlot(pg, key)
	if !ok {
		t.pool.Unpin(id, false)
		return false
	}
	pg.Delete(i)
	t.pool.Unpin(id, true)
	t.setCount(t.count - 1)
	return true
}

// Scan implements index.Ordered: leaf-chain traversal from the leaf
// covering lo, counting a page's cells at a time. It fetches the pages a walk
// entry by entry would, in the same order: not the next leaf when limit
// lands on a page's last cell.
func (t *Tree) Scan(lo uint64, limit int) int {
	if limit < 1 {
		return 0
	}
	pg, id := t.descend(lo, nil)
	i, _ := t.findSlot(pg, lo)
	visited := 0
	for {
		visited += pg.NumCells() - i
		next := pg.Next()
		t.pool.Unpin(id, false)
		if visited >= limit {
			return limit
		}
		if next == pager.NilPage {
			return visited
		}
		id = next
		pg = t.get(id)
		i = 0
	}
}

// BulkLoad implements index.BulkLoader: builds packed leaves left to right
// at ~90% fill, then inner levels bottom-up. Pages of a previous tree are
// freed (quarantined until the next checkpoint).
func (t *Tree) BulkLoad(keys, values []uint64) {
	f := t.pool.File()
	if old := f.Root(rootSlot); old != pager.NilPage {
		for _, id := range t.Reachable() {
			if err := t.pool.Free(id); err != nil {
				panic(fmt.Sprintf("diskbtree: %v", err))
			}
		}
	}

	type entry struct {
		first uint64
		id    pager.PageID
	}
	var level []entry

	if len(keys) == 0 {
		pg, id, err := t.pool.Alloc(pager.TypeLeaf)
		if err != nil {
			panic(err)
		}
		_ = pg
		t.pool.Unpin(id, true)
		f.SetRoot(rootSlot, id)
		t.setCount(0)
		return
	}

	// Leaf level.
	var prev *pager.Page
	var prevID pager.PageID
	for off := 0; off < len(keys); {
		pg, id, err := t.pool.Alloc(pager.TypeLeaf)
		if err != nil {
			panic(fmt.Sprintf("diskbtree: %v", err))
		}
		for n := 0; n < leafFillCells && off < len(keys); n, off = n+1, off+1 {
			if !pg.Insert(n, leafCell(keys[off], values[off])) {
				break
			}
		}
		level = append(level, entry{first: cellKey(pg.Cell(0)), id: id})
		if prev != nil {
			prev.SetNext(id)
			t.pool.Unpin(prevID, true)
		}
		prev, prevID = pg, id
	}
	t.pool.Unpin(prevID, true)

	// Inner levels until one node remains.
	for len(level) > 1 {
		var up []entry
		for off := 0; off < len(level); {
			pg, id, err := t.pool.Alloc(pager.TypeInner)
			if err != nil {
				panic(fmt.Sprintf("diskbtree: %v", err))
			}
			first := level[off].first
			pg.SetNext(level[off].id) // leftmost child
			off++
			for n := 0; n < innerFillCells && off < len(level); n, off = n+1, off+1 {
				if !pg.Insert(n, innerCell(level[off].first, level[off].id)) {
					break
				}
			}
			t.pool.Unpin(id, true)
			up = append(up, entry{first: first, id: id})
		}
		level = up
	}
	f.SetRoot(rootSlot, level[0].id)
	t.setCount(len(keys))
}

// Reachable returns every page ID reachable from the root — the input to
// pager.Pool.CheckConsistency and RebuildFreeList after reopening a file.
func (t *Tree) Reachable() []pager.PageID {
	root := t.pool.File().Root(rootSlot)
	if root == pager.NilPage {
		return nil
	}
	var out []pager.PageID
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		out = append(out, id)
		pg := t.get(id)
		if pg.Type() == pager.TypeInner {
			children := make([]pager.PageID, 0, pg.NumCells()+1)
			children = append(children, pg.Next())
			for i := 0; i < pg.NumCells(); i++ {
				children = append(children, innerChild(pg.Cell(i)))
			}
			t.pool.Unpin(id, false)
			for _, c := range children {
				walk(c)
			}
			return
		}
		t.pool.Unpin(id, false)
	}
	walk(root)
	return out
}

var _ index.Measured = (*Tree)(nil)
