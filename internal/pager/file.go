package pager

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Backend is the byte store a page file sits on. *os.File satisfies the
// I/O surface via FileBackend; MemBackend keeps everything in memory for
// the deterministic virtual-clock SUTs (same format, same counters, no
// filesystem dependence).
type Backend interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

// memChunk is the unit MemBackend grows by. 16 pages keeps the unused tail
// of the last chunk small against even the smallest benchmark file.
const memChunk = 16 * PageSize

// MemBackend is an in-memory Backend. The file lives in fixed-size chunks,
// so extending it appends a chunk and copies nothing. Chunk bytes at and
// past size are always zero: that is what a file reads back after it grows.
type MemBackend struct {
	chunks [][]byte
	size   int64
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// ReadAt implements Backend.
func (m *MemBackend) ReadAt(p []byte, off int64) (int, error) {
	if off >= m.size {
		return 0, io.EOF
	}
	want := len(p)
	if rest := m.size - off; int64(want) > rest {
		p = p[:rest]
	}
	for n := 0; n < len(p); {
		n += copy(p[n:], m.from(off+int64(n)))
	}
	if len(p) < want {
		return len(p), io.ErrUnexpectedEOF
	}
	return want, nil
}

// WriteAt implements Backend.
func (m *MemBackend) WriteAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > m.size {
		m.grow(end)
	}
	for n := 0; n < len(p); {
		n += copy(m.from(off+int64(n)), p[n:])
	}
	return len(p), nil
}

// page returns the PageSize bytes at the page-aligned offset off < size.
// A chunk holds whole pages, so they are one slice of it.
func (m *MemBackend) page(off int64) []byte { return m.from(off)[:PageSize] }

// from returns the rest of the chunk that holds byte pos.
func (m *MemBackend) from(pos int64) []byte {
	return m.chunks[pos/memChunk][pos%memChunk:]
}

// grow extends the file to size bytes; the new bytes read as zeros.
func (m *MemBackend) grow(size int64) {
	for int64(len(m.chunks))*memChunk < size {
		m.chunks = append(m.chunks, make([]byte, memChunk))
	}
	m.size = size
}

// Sync implements Backend (no-op).
func (m *MemBackend) Sync() error { return nil }

// Truncate implements Backend.
func (m *MemBackend) Truncate(size int64) error {
	if size >= m.size {
		m.grow(size)
		return nil
	}
	keep := int((size + memChunk - 1) / memChunk)
	clear(m.chunks[keep:]) // let the dropped chunks be collected
	m.chunks = m.chunks[:keep]
	if tail := size % memChunk; tail != 0 {
		clear(m.chunks[keep-1][tail:])
	}
	m.size = size
	return nil
}

// Size implements Backend.
func (m *MemBackend) Size() (int64, error) { return m.size, nil }

// Close implements Backend (no-op).
func (m *MemBackend) Close() error { return nil }

// FileBackend adapts *os.File with failure hooks for the crash-safety
// suite: WriteHook may truncate or fail a page write (torn page), SyncHook
// may fail an fsync (mirroring the hook pattern of service.Store).
type FileBackend struct {
	F *os.File
	// WriteHook, when set, intercepts every WriteAt: it returns how many
	// bytes of p to actually write and an error to report. nil = write all.
	WriteHook func(off int64, p []byte) (int, error)
	// SyncHook, when set, replaces fsync.
	SyncHook func(*os.File) error
}

// NewFileBackend opens (or creates) the file at path.
func NewFileBackend(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	return &FileBackend{F: f}, nil
}

// ReadAt implements Backend.
func (b *FileBackend) ReadAt(p []byte, off int64) (int, error) { return b.F.ReadAt(p, off) }

// WriteAt implements Backend.
func (b *FileBackend) WriteAt(p []byte, off int64) (int, error) {
	if b.WriteHook != nil {
		n, err := b.WriteHook(off, p)
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			if _, werr := b.F.WriteAt(p[:n], off); werr != nil {
				return 0, werr
			}
		}
		if err != nil {
			return n, err
		}
		if n < len(p) {
			return n, io.ErrShortWrite
		}
		return n, nil
	}
	return b.F.WriteAt(p, off)
}

// Sync implements Backend.
func (b *FileBackend) Sync() error {
	if b.SyncHook != nil {
		return b.SyncHook(b.F)
	}
	return b.F.Sync()
}

// Truncate implements Backend.
func (b *FileBackend) Truncate(size int64) error { return b.F.Truncate(size) }

// Size implements Backend.
func (b *FileBackend) Size() (int64, error) {
	st, err := b.F.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close implements Backend.
func (b *FileBackend) Close() error { return b.F.Close() }

// metaMagic identifies a pager file ("LSPG" little-endian).
const metaMagic = 0x4750534C

// NumRoots is how many root pointers the meta page carries (the B+ tree
// uses one for its root, the LSM one for its catalog head).
const NumRoots = 4

// meta is the deserialized meta-page payload. The free-list is
// deliberately NOT persisted: it is rebuilt on open by a reachability
// sweep (see Pool.RebuildFreeList), which makes "free-list disagrees with
// the data" impossible by construction after any crash.
type meta struct {
	epoch     uint64
	pageCount uint32 // pages in the file, meta pages included
	roots     [NumRoots]PageID
}

// File is a page file: fixed-size pages over a Backend with checksummed
// reads/writes and dual epoch-stamped meta pages. File does raw page I/O
// only — callers go through a Pool, which caches, counts, and owns the
// free-list.
type File struct {
	b Backend
	// mem is b when it is a *MemBackend, whose pages ReadPage and WritePage
	// copy and checksum in one pass; nil for any other Backend, which gets
	// ReadAt then verify, or seal then WriteAt.
	mem *MemBackend
	// published is the last checkpointed meta; working is the in-memory
	// state (allocations, root updates) the next checkpoint publishes.
	published meta
	working   meta
	metaPage  Page // writeMeta's image, kept so a checkpoint allocates nothing
}

// Create initializes a fresh page file on backend (truncating whatever is
// there) and publishes an empty meta into both slots.
func Create(b Backend) (*File, error) {
	if err := b.Truncate(0); err != nil {
		return nil, fmt.Errorf("pager: create: %w", err)
	}
	f := newFile(b)
	f.working = meta{epoch: 1, pageCount: 2}
	if err := f.writeMeta(0, f.working); err != nil {
		return nil, err
	}
	if err := f.writeMeta(1, f.working); err != nil {
		return nil, err
	}
	if err := b.Sync(); err != nil {
		return nil, fmt.Errorf("pager: create sync: %w", err)
	}
	f.published = f.working
	return f, nil
}

// Open loads an existing page file, picking the newer valid meta page. A
// torn meta write (crash mid-checkpoint) falls back to the older epoch;
// two invalid metas mean the file is not a pager file or is corrupt beyond
// recovery, and Open fails loudly.
func Open(b Backend) (*File, error) {
	f := newFile(b)
	var best *meta
	for slot := PageID(0); slot <= 1; slot++ {
		m, err := f.readMeta(slot)
		if err != nil {
			continue // torn or foreign; try the other slot
		}
		if best == nil || m.epoch > best.epoch {
			mm := m
			best = &mm
		}
	}
	if best == nil {
		return nil, fmt.Errorf("pager: no valid meta page (not a pager file, or both checkpoints torn)")
	}
	f.published = *best
	f.working = *best
	// Pages written after the published checkpoint are unreachable by
	// definition; truncating keeps Size in step with pageCount.
	if sz, err := b.Size(); err == nil && sz > int64(best.pageCount)*PageSize {
		if err := b.Truncate(int64(best.pageCount) * PageSize); err != nil {
			return nil, fmt.Errorf("pager: open truncate: %w", err)
		}
	}
	return f, nil
}

// newFile returns a File over b with nothing read or written.
func newFile(b Backend) *File {
	m, _ := b.(*MemBackend)
	return &File{b: b, mem: m}
}

// writeMeta serializes m into meta slot (page 0 or 1).
func (f *File) writeMeta(slot PageID, m meta) error {
	p := &f.metaPage
	p.Reset(slot, TypeMeta)
	pl := p.buf[HeaderSize:]
	binary.LittleEndian.PutUint32(pl[0:], metaMagic)
	binary.LittleEndian.PutUint64(pl[4:], m.epoch)
	binary.LittleEndian.PutUint32(pl[12:], m.pageCount)
	for i, r := range m.roots {
		binary.LittleEndian.PutUint32(pl[16+4*i:], uint32(r))
	}
	return f.WritePage(slot, p)
}

// readMeta loads and validates meta slot.
func (f *File) readMeta(slot PageID) (meta, error) {
	var p Page
	if err := f.ReadPage(slot, &p); err != nil {
		return meta{}, err
	}
	if p.Type() != TypeMeta {
		return meta{}, fmt.Errorf("pager: page %d is not a meta page", slot)
	}
	pl := p.buf[HeaderSize:]
	if binary.LittleEndian.Uint32(pl[0:]) != metaMagic {
		return meta{}, fmt.Errorf("pager: bad magic in meta page %d", slot)
	}
	m := meta{
		epoch:     binary.LittleEndian.Uint64(pl[4:]),
		pageCount: binary.LittleEndian.Uint32(pl[12:]),
	}
	for i := range m.roots {
		m.roots[i] = PageID(binary.LittleEndian.Uint32(pl[16+4*i:]))
	}
	return m, nil
}

// ReadPage reads and verifies page id into p. A page wholly inside a
// MemBackend is copied and checksummed in one pass; anything else, a read
// past the end included, goes through Backend.ReadAt.
func (f *File) ReadPage(id PageID, p *Page) error {
	off := int64(id) * PageSize
	if m := f.mem; m != nil && off+PageSize <= m.size {
		src := m.page(off)
		copy(p.buf[:offPageID], src)
		return p.check(id, checksumCopy(p.buf[offPageID:], src[offPageID:]))
	}
	if _, err := f.b.ReadAt(p.buf[:], off); err != nil {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	return p.verify(id)
}

// WritePage seals (checksums) and writes page p at id. Into a MemBackend
// the page is copied and checksummed in one pass.
func (f *File) WritePage(id PageID, p *Page) error {
	off := int64(id) * PageSize
	if m := f.mem; m != nil {
		if end := off + PageSize; end > m.size {
			m.grow(end)
		}
		dst := m.page(off)
		p.stamp(checksumCopy(dst[offPageID:], p.buf[offPageID:]))
		copy(dst, p.buf[:offPageID])
		return nil
	}
	p.seal()
	if _, err := f.b.WriteAt(p.buf[:], off); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	return nil
}

// Root returns working root pointer i.
func (f *File) Root(i int) PageID { return f.working.roots[i] }

// SetRoot updates working root pointer i; it becomes durable at the next
// checkpoint.
func (f *File) SetRoot(i int, id PageID) { f.working.roots[i] = id }

// PageCount returns the working page count (meta pages included).
func (f *File) PageCount() uint32 { return f.working.pageCount }

// Sync flushes the backend.
func (f *File) Sync() error { return f.b.Sync() }

// Close closes the backend without checkpointing.
func (f *File) Close() error { return f.b.Close() }

// Checkpoint publishes the working meta. Callers must have flushed and
// synced all data pages first (Pool.Checkpoint does). The meta lands in
// the slot not holding the currently published epoch, then is synced, so
// the old checkpoint stays intact until the new one is fully durable.
func (f *File) Checkpoint() error {
	f.working.epoch = f.published.epoch + 1
	slot := PageID(f.working.epoch % 2)
	if err := f.writeMeta(slot, f.working); err != nil {
		return err
	}
	if err := f.b.Sync(); err != nil {
		return fmt.Errorf("pager: checkpoint sync: %w", err)
	}
	f.published = f.working
	return nil
}
