package kv

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kv/bloom"
	"repro/internal/pager"
	"repro/internal/search"
)

// pagedRuns is the disk run store: runs laid out in block-aligned slotted
// pages behind a buffer pool, listed by a catalog page chain.
//
// Durability is checkpoint-based and crash-consistent by construction:
// run pages are immutable once written, a sync serializes the run
// directory into fresh catalog pages and flips the catalog root, and
// pages freed by compaction stay quarantined until the checkpoint that
// unreferences them is published (see pager.Pool). A crash between
// checkpoints reverts to the previous catalog, whose runs are intact.
//
// The sparse index is per-page (the first key of every run page), which
// is the block-granular equivalent of the SparseEvery knob; it and the
// Bloom filters live in memory and are rebuilt when a file is reopened.
type pagedRuns struct {
	pl      *pager.Pool
	catalog []pager.PageID
}

const (
	// runCellSize is one entry on a run page: key(8) + value(8) + dead(1).
	runCellSize = 17
	// entriesPerPage is the fixed fan-out of a run page.
	entriesPerPage = (pager.PageSize - pager.HeaderSize) / (runCellSize + 4)
	// catalogChunkIDs caps page IDs per catalog chunk cell so every cell
	// fits comfortably in a page.
	catalogChunkIDs = 500

	// catalogRootSlot is the File root-pointer slot holding the head of
	// the catalog page chain.
	catalogRootSlot = 0
)

// pagedRun is one immutable sorted run: its pages and their first keys
// (the sparse index). Only the pages are durable.
type pagedRun struct {
	pl    *pager.Pool
	pages []pager.PageID
	first []uint64
}

func runCell(e entry) []byte {
	var c [runCellSize]byte
	binary.LittleEndian.PutUint64(c[0:], e.key)
	binary.LittleEndian.PutUint64(c[8:], e.val)
	if e.dead {
		c[16] = 1
	}
	return c[:]
}

func decodeRunCell(c []byte) entry {
	return entry{
		key:  binary.LittleEndian.Uint64(c[0:]),
		val:  binary.LittleEndian.Uint64(c[8:]),
		dead: c[16] == 1,
	}
}

func (p *pagedRuns) pool() *pager.Pool { return p.pl }

// getPage pins a page the store's own directory says exists, so failure is
// a bug or a corrupt file and not an input error.
func getPage(pl *pager.Pool, id pager.PageID) *pager.Page {
	pg, err := pl.Get(id)
	if err != nil {
		panic(fmt.Sprintf("kv: disk store: %v", err))
	}
	return pg
}

// write puts entries (sorted, deduped) into fresh pages and returns the
// run with its in-memory page index.
func (p *pagedRuns) write(entries []entry, _ Knobs) runData {
	r := &pagedRun{pl: p.pl}
	for off := 0; off < len(entries); {
		pg, id, err := p.pl.Alloc(pager.TypeRun)
		if err != nil {
			panic(fmt.Sprintf("kv: disk store: %v", err))
		}
		r.pages = append(r.pages, id)
		r.first = append(r.first, entries[off].key)
		for slot := 0; slot < entriesPerPage && off < len(entries); slot, off = slot+1, off+1 {
			if !pg.Insert(slot, runCell(entries[off])) {
				panic("kv: disk store: run cell does not fit")
			}
		}
		p.pl.Unpin(id, true)
	}
	return r
}

// get searches r for key: the last page whose first key is <= key, then
// that page's cells. probes counts cell comparisons.
func (r *pagedRun) get(key uint64) (entry, bool, int) {
	pi := search.UpperBound(r.first, key) - 1
	if pi < 0 {
		return entry{}, false, 0
	}
	pg := getPage(r.pl, r.pages[pi])
	defer r.pl.Unpin(r.pages[pi], false)
	probes := 0
	clo, chi := 0, pg.NumCells()
	for clo < chi {
		mid := int(uint(clo+chi) >> 1)
		probes++
		e := decodeRunCell(pg.Cell(mid))
		switch {
		case e.key < key:
			clo = mid + 1
		case e.key > key:
			chi = mid
		default:
			return e, true, probes
		}
	}
	return entry{}, false, probes
}

func (r *pagedRun) seek(lo uint64) int { return max(search.UpperBound(r.first, lo)-1, 0) }

// appendPage decodes page i's cells onto dst through the pool.
func (r *pagedRun) appendPage(dst []entry, i int) []entry {
	pg := getPage(r.pl, r.pages[i])
	for c := 0; c < pg.NumCells(); c++ {
		dst = append(dst, decodeRunCell(pg.Cell(c)))
	}
	r.pl.Unpin(r.pages[i], false)
	return dst
}

func (r *pagedRun) chunk(i int) []entry {
	if i >= len(r.pages) {
		return nil
	}
	return r.appendPage(make([]entry, 0, entriesPerPage), i)
}

func (r *pagedRun) all() []entry {
	out := make([]entry, 0, len(r.pages)*entriesPerPage)
	for i := range r.pages {
		out = r.appendPage(out, i)
	}
	return out
}

// free sends the run's pages to the quarantine.
func (r *pagedRun) free() {
	for _, id := range r.pages {
		if err := r.pl.Free(id); err != nil {
			panic(fmt.Sprintf("kv: disk store: %v", err))
		}
	}
}

func (p *pagedRuns) reachable(runs []run) []pager.PageID {
	var out []pager.PageID
	out = append(out, p.catalog...)
	for _, r := range runs {
		out = append(out, r.data.(*pagedRun).pages...)
	}
	return out
}

// sync serializes the run directory into fresh catalog pages, flips the
// catalog root, and has the pool checkpoint publish it all atomically.
func (p *pagedRuns) sync(runs []run) error {
	if err := p.writeCatalog(runs); err != nil {
		return err
	}
	return p.pl.Checkpoint()
}

// writeCatalog serializes the run directory (newest first) into a fresh
// chain of catalog pages and points the catalog root at it. Old catalog
// pages join the free-page quarantine.
//
// Cell stream format, in chain order:
//
//	header cell:  0x00, entryCount uint32, pageCount uint32
//	chunk cell:   0x01, pageID uint32 ... (up to catalogChunkIDs)
//
// Each run is one header followed by enough chunks to list its pages.
func (p *pagedRuns) writeCatalog(runs []run) error {
	var cells [][]byte
	for _, r := range runs {
		pages := r.data.(*pagedRun).pages
		hdr := make([]byte, 9)
		hdr[0] = 0
		binary.LittleEndian.PutUint32(hdr[1:], uint32(r.n))
		binary.LittleEndian.PutUint32(hdr[5:], uint32(len(pages)))
		cells = append(cells, hdr)
		for off := 0; off < len(pages); off += catalogChunkIDs {
			end := off + catalogChunkIDs
			if end > len(pages) {
				end = len(pages)
			}
			chunk := make([]byte, 1+4*(end-off))
			chunk[0] = 1
			for i, id := range pages[off:end] {
				binary.LittleEndian.PutUint32(chunk[1+4*i:], uint32(id))
			}
			cells = append(cells, chunk)
		}
	}

	old := p.catalog
	p.catalog = nil
	head := pager.NilPage
	var cur *pager.Page
	var curID pager.PageID
	for _, cell := range cells {
		if cur != nil && cur.Insert(cur.NumCells(), cell) {
			continue
		}
		pg, id, err := p.pl.Alloc(pager.TypeCatalog)
		if err != nil {
			return err
		}
		if cur != nil {
			cur.SetNext(id)
			p.pl.Unpin(curID, true)
		} else {
			head = id
		}
		cur, curID = pg, id
		if !cur.Insert(0, cell) {
			return fmt.Errorf("kv: catalog cell of %d bytes does not fit", len(cell))
		}
	}
	if cur == nil {
		// No runs at all: an empty catalog page marks "empty store".
		_, id, err := p.pl.Alloc(pager.TypeCatalog)
		if err != nil {
			return err
		}
		head = id
		curID = id
	}
	p.pl.Unpin(curID, true)
	p.pl.File().SetRoot(catalogRootSlot, head)
	for _, id := range old {
		if err := p.pl.Free(id); err != nil {
			return err
		}
	}
	p.catalog = p.chainPages(head)
	return nil
}

// chainPages walks a page chain from head collecting IDs.
func (p *pagedRuns) chainPages(head pager.PageID) []pager.PageID {
	var out []pager.PageID
	for id := head; id != pager.NilPage; {
		out = append(out, id)
		pg := getPage(p.pl, id)
		next := pg.Next()
		p.pl.Unpin(id, false)
		id = next
	}
	return out
}

// loadCatalog rebuilds the run directory from the published catalog chain,
// re-deriving each run's page index and Bloom filter from its pages.
func (p *pagedRuns) loadCatalog(bloomBitsPerKey int) ([]run, error) {
	p.catalog = p.chainPages(p.pl.File().Root(catalogRootSlot))

	var runs []run
	var pending *pagedRun
	var n, want int
	finish := func() error {
		if pending == nil {
			return nil
		}
		if len(pending.pages) != want {
			return fmt.Errorf("kv: catalog lists %d pages, found %d", want, len(pending.pages))
		}
		filter := bloom.New(n, bloomBitsPerKey)
		for _, id := range pending.pages {
			pg := getPage(p.pl, id)
			if pg.NumCells() > 0 {
				pending.first = append(pending.first, decodeRunCell(pg.Cell(0)).key)
			}
			for i := 0; i < pg.NumCells(); i++ {
				filter.Add(decodeRunCell(pg.Cell(i)).key)
			}
			p.pl.Unpin(id, false)
		}
		runs = append(runs, run{n: n, filter: filter, data: pending})
		pending = nil
		return nil
	}
	for _, cid := range p.catalog {
		pg := getPage(p.pl, cid)
		for i := 0; i < pg.NumCells(); i++ {
			cell := pg.Cell(i)
			switch cell[0] {
			case 0:
				if err := finish(); err != nil {
					p.pl.Unpin(cid, false)
					return nil, err
				}
				pending = &pagedRun{pl: p.pl}
				n = int(binary.LittleEndian.Uint32(cell[1:]))
				want = int(binary.LittleEndian.Uint32(cell[5:]))
			case 1:
				if pending == nil {
					p.pl.Unpin(cid, false)
					return nil, fmt.Errorf("kv: catalog chunk before any run header")
				}
				for off := 1; off < len(cell); off += 4 {
					pending.pages = append(pending.pages, pager.PageID(binary.LittleEndian.Uint32(cell[off:])))
				}
			default:
				p.pl.Unpin(cid, false)
				return nil, fmt.Errorf("kv: unknown catalog cell tag %d", cell[0])
			}
		}
		p.pl.Unpin(cid, false)
	}
	return runs, finish()
}
