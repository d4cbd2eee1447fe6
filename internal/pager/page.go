// Package pager implements the disk-backed storage tier underneath the
// benchmark's disk-resident SUTs: a slotted-page file format (fixed 4 KiB
// pages with checksummed headers and a free-list) behind a buffer pool
// with pluggable eviction policies and per-pool work counters.
//
// The design follows the classic textbook pager:
//
//   - Page 0 and 1 are alternating meta pages (epoch-stamped); open picks
//     the valid one with the higher epoch, so a torn meta write falls back
//     to the previous checkpoint instead of corrupting the file.
//   - Every page carries a CRC32-C checksum over its contents; reads verify
//     it, so torn data pages are detected, never silently served. On amd64
//     CPUs with AVX2, VPCLMULQDQ, PCLMULQDQ and SSE4.2, with YMM state
//     enabled by the OS, an assembly kernel computes it, folding 256 bytes
//     per step; inputs under 256 bytes, other CPUs and other architectures
//     use hash/crc32. Both give the same sum, so the bytes on disk do not
//     depend on the CPU that wrote them.
//   - Durability is checkpoint-based: Pool.Checkpoint flushes dirty pages,
//     fsyncs, then publishes the new meta (roots, free-list head, page
//     count) with a second fsync. A crash between checkpoints reverts the
//     file to the last published state — the free-list and root pointers
//     can never disagree with the data they describe.
//
// Everything above the backend is deterministic: given the same sequence
// of operations, page allocation, eviction decisions, and counters are
// identical — the property the virtual-clock benchmark requires.
package pager

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed page size. 4 KiB matches the common OS page and
// SSD sector granularity the cost model prices.
const PageSize = 4096

// PageID identifies a page by its slot in the file. 0 and 1 are the meta
// pages; user pages start at 2. 0 doubles as the nil page reference in
// chain pointers (a real chain never points at a meta page).
type PageID uint32

// NilPage is the null page reference.
const NilPage PageID = 0

// Page header layout (bytes):
//
//	 0..3   checksum   crc32c over bytes [4, PageSize)
//	 4..7   pageID     self-reference, catches misdirected writes
//	 8      type       PageType
//	 9      flags      (reserved)
//	10..11  nslots     slot count
//	12..13  cellStart  offset of the lowest cell byte (cells grow down)
//	14..15  reserved
//	16..23  next       chain pointer (free-list, leaf sibling, catalog)
//	24..    slot directory (4 bytes per slot), then free space, then cells
const (
	offChecksum  = 0
	offPageID    = 4
	offType      = 8
	offNSlots    = 10
	offCellStart = 12
	offNext      = 16
	// HeaderSize is where the slot directory begins.
	HeaderSize = 24
)

// PageType tags what a page stores. The pager itself only interprets Free
// and Meta; the rest are for the structures built on top.
type PageType uint8

// Page types.
const (
	TypeFree    PageType = 0
	TypeMeta    PageType = 1
	TypeLeaf    PageType = 2 // B+ tree leaf
	TypeInner   PageType = 3 // B+ tree inner node
	TypeRun     PageType = 4 // LSM sorted-run block
	TypeCatalog PageType = 5 // LSM run directory
)

// Page is one in-memory page image. Structures edit it through the slotted
// accessors (or raw via Bytes) and the pool checksums it on write-back.
type Page struct {
	buf [PageSize]byte
}

// Bytes exposes the raw page image (checksum and header included).
func (p *Page) Bytes() []byte { return p.buf[:] }

// Reset clears the page to an empty slotted page of the given type and id.
func (p *Page) Reset(id PageID, t PageType) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.LittleEndian.PutUint32(p.buf[offPageID:], uint32(id))
	p.buf[offType] = byte(t)
	p.setNSlots(0)
	p.setCellStart(PageSize)
}

// ID returns the page's self-reference.
func (p *Page) ID() PageID {
	return PageID(binary.LittleEndian.Uint32(p.buf[offPageID:]))
}

// Type returns the page type tag.
func (p *Page) Type() PageType { return PageType(p.buf[offType]) }

// Next returns the chain pointer.
func (p *Page) Next() PageID {
	return PageID(binary.LittleEndian.Uint64(p.buf[offNext:]))
}

// SetNext updates the chain pointer.
func (p *Page) SetNext(id PageID) {
	binary.LittleEndian.PutUint64(p.buf[offNext:], uint64(id))
}

func (p *Page) nSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[offNSlots:]))
}

func (p *Page) setNSlots(n int) {
	binary.LittleEndian.PutUint16(p.buf[offNSlots:], uint16(n))
}

func (p *Page) cellStart() int {
	return int(binary.LittleEndian.Uint16(p.buf[offCellStart:]))
}

func (p *Page) setCellStart(v int) {
	// PageSize itself (empty page) wraps to 0 in uint16; store 0 as the
	// sentinel for "no cells yet" and decode it back.
	binary.LittleEndian.PutUint16(p.buf[offCellStart:], uint16(v%PageSize))
}

func (p *Page) cellStartDecoded() int {
	v := p.cellStart()
	if v == 0 {
		return PageSize
	}
	return v
}

// slot directory entry i: offset uint16, length uint16.
func (p *Page) slotPos(i int) int { return HeaderSize + 4*i }

func (p *Page) slot(i int) (off, ln int) {
	sp := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.buf[sp:])),
		int(binary.LittleEndian.Uint16(p.buf[sp+2:]))
}

func (p *Page) setSlot(i, off, ln int) {
	sp := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.buf[sp:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[sp+2:], uint16(ln))
}

// NumCells returns the number of cells in the page.
func (p *Page) NumCells() int { return p.nSlots() }

// Cell returns the i-th cell's bytes (aliasing the page image).
func (p *Page) Cell(i int) []byte {
	off, ln := p.slot(i)
	return p.buf[off : off+ln]
}

// FreeSpace returns the cell bytes one more Insert can hold, with its slot
// directory entry already accounted for. Fragmented space (from deleted
// cells) counts: Insert compacts when the contiguous region runs short.
func (p *Page) FreeSpace() int {
	n := p.nSlots()
	used := 0
	for i := 0; i < n; i++ {
		_, ln := p.slot(i)
		used += ln
	}
	free := PageSize - HeaderSize - 4*n - used - 4
	if free < 0 {
		return 0
	}
	return free
}

// contiguous returns the bytes between the slot directory and the lowest
// cell — the space a new cell's bytes must fit into without compaction.
func (p *Page) contiguous() int {
	return p.cellStartDecoded() - (HeaderSize + 4*p.nSlots())
}

// Insert places cell at slot index i (shifting later slots up), keeping
// the caller's ordering. Returns false when the page cannot hold it.
func (p *Page) Insert(i int, cell []byte) bool {
	n := p.nSlots()
	if i < 0 || i > n {
		panic("pager: insert slot out of range")
	}
	// The cell and its slot usually fit between the directory and the
	// lowest cell; only when they do not is the O(slots) FreeSpace scan
	// needed to tell fragmentation (compact) from a full page.
	if p.contiguous() < len(cell)+4 {
		if len(cell) > p.FreeSpace() {
			return false
		}
		p.compact()
	}
	// Claim cell space from the bottom.
	start := p.cellStartDecoded() - len(cell)
	copy(p.buf[start:], cell)
	p.setCellStart(start)
	// Shift slots [i, n) up one.
	copy(p.buf[p.slotPos(i+1):p.slotPos(n+1)], p.buf[p.slotPos(i):p.slotPos(n)])
	p.setSlot(i, start, len(cell))
	p.setNSlots(n + 1)
	return true
}

// Delete removes slot i; the cell bytes become reclaimable fragmentation.
func (p *Page) Delete(i int) {
	n := p.nSlots()
	if i < 0 || i >= n {
		panic("pager: delete slot out of range")
	}
	copy(p.buf[p.slotPos(i):p.slotPos(n-1)], p.buf[p.slotPos(i+1):p.slotPos(n)])
	p.setNSlots(n - 1)
	if n-1 == 0 {
		p.setCellStart(PageSize)
	}
}

// SetCell overwrites cell i in place; the new cell must be the same length
// (the fixed-size records of the disk SUTs always are).
func (p *Page) SetCell(i int, cell []byte) {
	off, ln := p.slot(i)
	if ln != len(cell) {
		panic("pager: SetCell length mismatch")
	}
	copy(p.buf[off:off+ln], cell)
}

// compact rewrites cells top-down to squeeze out fragmentation. Slot order
// is preserved; offsets change.
func (p *Page) compact() {
	var tmp [PageSize]byte
	n := p.nSlots()
	bottom := PageSize
	for i := 0; i < n; i++ {
		off, ln := p.slot(i)
		bottom -= ln
		copy(tmp[bottom:], p.buf[off:off+ln])
		p.setSlot(i, bottom, ln)
	}
	copy(p.buf[bottom:], tmp[bottom:])
	p.setCellStart(bottom)
}

// seal stamps the checksum for writing.
func (p *Page) seal() {
	sum := checksum(p.buf[offPageID:])
	binary.LittleEndian.PutUint32(p.buf[offChecksum:], sum)
}

// verify checks the stored checksum and self-reference against id.
func (p *Page) verify(id PageID) error {
	want := binary.LittleEndian.Uint32(p.buf[offChecksum:])
	got := checksum(p.buf[offPageID:])
	if want != got {
		return fmt.Errorf("pager: page %d checksum mismatch (stored %08x, computed %08x)", id, want, got)
	}
	if self := p.ID(); self != id {
		return fmt.Errorf("pager: page %d carries self-reference %d (misdirected write)", id, self)
	}
	return nil
}
