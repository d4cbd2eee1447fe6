package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Binary trace format. A trace is the exact operation/gap stream of one
// run, compact enough that the service can keep one per job served:
//
//	header: magic "LSTR" | version u8
//	        uvarint(len(name)) name | uvarint(seed)
//	block:  kind u8 | payloadLen u32 LE | crc32c(payload) u32 LE | payload
//
// Block kinds:
//
//	phase (1): uvarint(index) | uvarint(len(name)) name | uvarint(ops)
//	ops   (2): uvarint(count)
//	           op-type run-length pairs (type u8, uvarint(run)) summing
//	           to count
//	           per op: zigzag-varint key delta from the previous op's key
//	           (state persists across blocks and phases)
//	           per op: zigzag-varint arrival gap (ns of virtual time)
//	           per Put, in stream order: value u64 LE (raw — values are
//	           full-entropy and do not varint-compress)
//	           per Scan, in stream order: uvarint(scanLimit)
//
// Keys delta-compress well for the clustered/sequential/zipf streams the
// benchmark issues; gaps are already inter-arrival deltas of the virtual
// timeline. Each block is independently crc32c-framed, so a torn tail — a
// crash mid-append, exactly like the JSONL result store — truncates to
// the last whole block instead of corrupting the replay.
const (
	traceMagic   = "LSTR"
	traceVersion = 1

	blockPhase = 1
	blockOps   = 2

	// traceBlockOps is how many operations a writer packs per block: big
	// enough to amortize framing, small enough that a torn tail loses
	// little.
	traceBlockOps = 4096
	// maxBlockPayload bounds a block a reader will buffer; a corrupt
	// length field is treated as a torn tail, not an allocation request.
	maxBlockPayload = 1 << 24
	// maxBlockCount bounds the op count a block may declare.
	maxBlockCount = 1 << 20
)

var traceCRC = crc32.MakeTable(crc32.Castagnoli)

// zigzag maps signed deltas onto uvarint-friendly magnitudes.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// TraceWriter encodes an operation stream into the binary trace format.
// Appends buffer into blocks; every I/O or encoding error latches and
// surfaces at Close, so hot-path recording never branches on errors.
type TraceWriter struct {
	w   *bufio.Writer
	err error

	// Pending block contents.
	ops  []Op
	gaps []int64

	lastKey uint64
	scratch []byte
}

// NewTraceWriter writes a trace header for a run named name (typically
// the scenario name) seeded with seed, and returns the writer. Close
// flushes; the caller owns closing the underlying writer.
func NewTraceWriter(w io.Writer, name string, seed uint64) *TraceWriter {
	tw := &TraceWriter{
		w:    bufio.NewWriter(w),
		ops:  make([]Op, 0, traceBlockOps),
		gaps: make([]int64, 0, traceBlockOps),
	}
	var hdr []byte
	hdr = append(hdr, traceMagic...)
	hdr = append(hdr, traceVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, seed)
	_, tw.err = tw.w.Write(hdr)
	return tw
}

// BeginPhase marks a phase boundary: subsequent Appends belong to phase
// index (named name, declaredOps operations). The runner calls it at each
// phase start so replay can reproduce per-phase streams exactly.
func (t *TraceWriter) BeginPhase(index int, name string, declaredOps int) {
	t.flushOps()
	var p []byte
	p = binary.AppendUvarint(p, uint64(index))
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	p = binary.AppendUvarint(p, uint64(declaredOps))
	t.writeBlock(blockPhase, p)
}

// Append records the next operations of the stream with their arrival
// gaps. gaps may be nil for closed-loop streams.
func (t *TraceWriter) Append(ops []Op, gaps []int64) {
	for i, op := range ops {
		t.ops = append(t.ops, op)
		if gaps == nil {
			t.gaps = append(t.gaps, 0)
		} else {
			t.gaps = append(t.gaps, gaps[i])
		}
		if len(t.ops) >= traceBlockOps {
			t.flushOps()
		}
	}
}

// Close writes any buffered operations out as a (possibly short) block,
// flushes, and returns the latched error. It does not close the underlying
// writer.
func (t *TraceWriter) Close() error {
	t.flushOps()
	if t.err == nil {
		t.err = t.w.Flush()
	}
	return t.err
}

// flushOps encodes the pending ops into one block.
func (t *TraceWriter) flushOps() {
	if len(t.ops) == 0 {
		return
	}
	p := t.scratch[:0]
	p = binary.AppendUvarint(p, uint64(len(t.ops)))
	// Op types, run-length coded.
	for i := 0; i < len(t.ops); {
		j := i + 1
		for j < len(t.ops) && t.ops[j].Type == t.ops[i].Type {
			j++
		}
		p = append(p, byte(t.ops[i].Type))
		p = binary.AppendUvarint(p, uint64(j-i))
		i = j
	}
	// Keys, delta + zigzag varint.
	last := t.lastKey
	for _, op := range t.ops {
		p = binary.AppendUvarint(p, zigzag(int64(op.Key-last)))
		last = op.Key
	}
	t.lastKey = last
	// Gaps.
	for _, g := range t.gaps {
		p = binary.AppendUvarint(p, zigzag(g))
	}
	// Put values (raw) and scan limits, in stream order.
	for _, op := range t.ops {
		if op.Type == Put {
			p = binary.LittleEndian.AppendUint64(p, op.Value)
		}
	}
	for _, op := range t.ops {
		if op.Type == Scan {
			if (op.ScanLimit < 1 || op.ScanLimit > MaxScanLimit) && t.err == nil {
				t.err = fmt.Errorf("workload: trace: scan limit %d outside [1,%d]", op.ScanLimit, MaxScanLimit)
			}
			p = binary.AppendUvarint(p, uint64(op.ScanLimit))
		}
	}
	t.scratch = p[:0]
	t.writeBlock(blockOps, p)
	t.ops = t.ops[:0]
	t.gaps = t.gaps[:0]
}

// writeBlock frames and writes one block.
func (t *TraceWriter) writeBlock(kind byte, payload []byte) {
	if t.err != nil {
		return
	}
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, traceCRC))
	if _, err := t.w.Write(hdr[:]); err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(payload); err != nil {
		t.err = err
	}
}

// TracePhase is one recorded phase: its marker metadata and the decoded
// operation/gap stream.
type TracePhase struct {
	// Index and Name mirror the scenario phase the stream was recorded
	// from; DeclaredOps is the op count the marker announced (the decoded
	// stream may be shorter if the trace tail was torn).
	Index       int
	Name        string
	DeclaredOps int
	Ops         []Op
	Gaps        []int64
}

// Trace is a fully decoded trace file.
type Trace struct {
	// Name and Seed are the recorded run's identity from the header.
	Name string
	Seed uint64
	// Phases holds the streams in recorded order. Ops recorded before
	// any phase marker land in an implicit phase 0.
	Phases []TracePhase
	// Truncated reports that a torn or corrupt tail block was dropped —
	// everything in Phases is intact.
	Truncated bool
}

// TotalOps returns the number of decoded operations across all phases.
func (t *Trace) TotalOps() int {
	n := 0
	for _, p := range t.Phases {
		n += len(p.Ops)
	}
	return n
}

// Reader returns a Source replaying the whole trace as one flat stream.
func (t *Trace) Reader() *TraceReader {
	if len(t.Phases) == 1 {
		return NewTraceReader(t.Name, t.Phases[0].Ops, t.Phases[0].Gaps)
	}
	var ops []Op
	var gaps []int64
	for _, p := range t.Phases {
		ops = append(ops, p.Ops...)
		gaps = append(gaps, p.Gaps...)
	}
	return NewTraceReader(t.Name, ops, gaps)
}

// PhaseReader returns a Source replaying phase i's stream.
func (t *Trace) PhaseReader(i int) *TraceReader {
	p := t.Phases[i]
	name := t.Name
	if p.Name != "" {
		name = name + "/" + p.Name
	}
	return NewTraceReader(name, p.Ops, p.Gaps)
}

// ReadTrace decodes a trace. A malformed header is an error; a torn or
// corrupt tail block is dropped cleanly (Truncated is set) — the crash
// semantics of the service's JSONL store, carried to the binary format.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if string(magic[:4]) != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (bad magic %q)", magic[:4])
	}
	if magic[4] != traceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d", magic[4])
	}
	name, err := readUvarintString(br)
	if err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}

	tr := &Trace{Name: name, Seed: seed}
	var cur *TracePhase
	phase := func() *TracePhase {
		if cur == nil {
			tr.Phases = append(tr.Phases, TracePhase{})
			cur = &tr.Phases[len(tr.Phases)-1]
		}
		return cur
	}
	var lastKey uint64
	var hdr [9]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err != io.EOF {
				tr.Truncated = true
			}
			return tr, nil
		}
		kind := hdr[0]
		plen := binary.LittleEndian.Uint32(hdr[1:5])
		sum := binary.LittleEndian.Uint32(hdr[5:9])
		if plen > maxBlockPayload {
			tr.Truncated = true
			return tr, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			tr.Truncated = true
			return tr, nil
		}
		if crc32.Checksum(payload, traceCRC) != sum {
			tr.Truncated = true
			return tr, nil
		}
		switch kind {
		case blockPhase:
			idx, name, declared, ok := decodePhaseBlock(payload)
			if !ok {
				tr.Truncated = true
				return tr, nil
			}
			tr.Phases = append(tr.Phases, TracePhase{Index: idx, Name: name, DeclaredOps: declared})
			cur = &tr.Phases[len(tr.Phases)-1]
		case blockOps:
			p := phase()
			if !decodeOpsBlock(payload, p, &lastKey) {
				tr.Truncated = true
				return tr, nil
			}
		default:
			// Unknown block kind: either corruption or a future writer.
			// Stop at the last understood prefix.
			tr.Truncated = true
			return tr, nil
		}
	}
}

// RecordTraceFile records to a new trace file at path: it hands run a
// writer whose header carries name and seed, then closes the writer and
// the file. The first error among run's and the two closes wins, and a
// recording that failed leaves no file behind — decided here, once, so no
// caller cleans up after it.
func RecordTraceFile(path, name string, seed uint64, run func(*TraceWriter) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := NewTraceWriter(f, name, seed)
	err = run(tw)
	if cErr := tw.Close(); err == nil {
		err = cErr
	}
	if cErr := f.Close(); err == nil {
		err = cErr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// WriteFile records the trace to a new file at path, one phase marker and
// one stream per phase. The writer cuts blocks by op count, not by call, so
// the bytes depend on the streams alone, not on how they reached Append.
func (t *Trace) WriteFile(path string) error {
	return RecordTraceFile(path, t.Name, t.Seed, func(tw *TraceWriter) error {
		for _, p := range t.Phases {
			tw.BeginPhase(p.Index, p.Name, p.DeclaredOps)
			tw.Append(p.Ops, p.Gaps)
		}
		return nil
	})
}

// ReadTraceFile decodes the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}

// readUvarintString reads a uvarint length-prefixed string.
func readUvarintString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxBlockPayload {
		return "", fmt.Errorf("string length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// decodePhaseBlock parses a phase marker payload.
func decodePhaseBlock(p []byte) (idx int, name string, declared int, ok bool) {
	u, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, "", 0, false
	}
	p = p[n:]
	l, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < l {
		return 0, "", 0, false
	}
	name = string(p[n : n+int(l)])
	p = p[n+int(l):]
	d, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, "", 0, false
	}
	return int(u), name, int(d), true
}

// decodeOpsBlock parses one ops block into the phase, threading the
// cross-block key-delta state. On any malformed field it rolls the phase
// back to its pre-block length — a dropped block never leaves a partial
// decode behind.
func decodeOpsBlock(p []byte, ph *TracePhase, lastKey *uint64) bool {
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxBlockCount {
		return false
	}
	p = p[n:]
	// Every op costs at least one key byte and one gap byte: a count the
	// payload cannot possibly back is corruption, rejected before any
	// allocation is sized from it.
	if count*2 > uint64(len(p)) {
		return false
	}
	base := len(ph.Ops)
	fail := func() bool {
		ph.Ops = ph.Ops[:base]
		ph.Gaps = ph.Gaps[:base]
		return false
	}
	ph.Ops = append(ph.Ops, make([]Op, count)...)
	ph.Gaps = append(ph.Gaps, make([]int64, count)...)
	ops := ph.Ops[base:]
	gaps := ph.Gaps[base:]

	// Op-type runs.
	for filled := uint64(0); filled < count; {
		if len(p) == 0 {
			return fail()
		}
		typ := OpType(p[0])
		if typ < 0 || typ >= numOpTypes {
			return fail()
		}
		run, n := binary.Uvarint(p[1:])
		if n <= 0 || run == 0 || filled+run > count {
			return fail()
		}
		p = p[1+n:]
		for j := uint64(0); j < run; j++ {
			ops[filled+j].Type = typ
		}
		filled += run
	}
	// Keys.
	key := *lastKey
	for i := range ops {
		u, n := binary.Uvarint(p)
		if n <= 0 {
			return fail()
		}
		p = p[n:]
		key += uint64(unzigzag(u))
		ops[i].Key = key
	}
	// Gaps.
	for i := range gaps {
		u, n := binary.Uvarint(p)
		if n <= 0 {
			return fail()
		}
		p = p[n:]
		gaps[i] = unzigzag(u)
	}
	// Put values.
	for i := range ops {
		if ops[i].Type != Put {
			continue
		}
		if len(p) < 8 {
			return fail()
		}
		ops[i].Value = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	// Scan limits.
	for i := range ops {
		if ops[i].Type != Scan {
			continue
		}
		u, n := binary.Uvarint(p)
		if n <= 0 || u == 0 || u > MaxScanLimit {
			return fail()
		}
		p = p[n:]
		ops[i].ScanLimit = int(u)
	}
	if len(p) != 0 {
		return fail()
	}
	*lastKey = key
	return true
}
