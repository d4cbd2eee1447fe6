// Package netdriver runs the benchmark driver and the system under test
// on opposite ends of a TCP connection, realizing the paper's §V-A setup
// ("the benchmark driver should ideally run on a separate machine and
// connect to the system under test over a fast network connection") —
// over loopback in tests, over a real network in deployments.
//
// The wire protocol is fixed-size binary frames (no allocation, no framing
// ambiguity), and there is one op frame: the sequence-numbered batch.
//
//	header:   opBatchBegin u8 | count u64 | seq u64 | pad u32   (21 bytes)
//	request:  opType u8 | key u64 | value u64 | scanLimit u32   (21 bytes)
//	response: flags u8  | visited u32 | work u64                (13 bytes)
//
// A batch is one header (count in [1, maxWireBatch], per-session sequence
// number seq >= 1) followed by count request frames in a single write; a
// single operation is a batch of one. The server answers with a tagged
// response — one header frame (batchRespMark u8 | count u32 | seq u64)
// plus count response frames in a single flush. The sequence number makes
// every retry idempotent: a re-sent batch (same seq) replays the server's
// cached answer instead of re-executing, and the client uses the response
// tags to discard delayed duplicate answers without desyncing the stream.
// The only other frames are opLoadBegin (a bulk load), opTrain (a training
// window, or a read of the online-training counter; the kind byte follows
// the op byte, and one response frame answers) and opClose; a frame that
// starts with anything else, a training frame of another kind, or a batch
// with seq 0 ends the session.
//
// All integers are big-endian.
package netdriver

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options bounds how long either end waits on the peer. Zero values mean
// no deadline (the pre-deadline behaviour); with a deadline set, a dead
// or stalled peer surfaces as an I/O error instead of hanging forever.
type Options struct {
	// ReadTimeout bounds each frame read (server: waiting for the next
	// request; client: waiting for the response).
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write/flush.
	WriteTimeout time.Duration

	// WrapConn, when set, wraps the client's raw connection before
	// deadlines apply — the injection point for wire-fault middleware
	// (fault.NewConn). If the wrapped conn implements WireFaultGater the
	// client gates faults off around load, train and close framing, which
	// cannot tolerate a dropped chunk or a retry.
	WrapConn func(net.Conn) net.Conn
	// MaxRetries is how many times the client re-sends an operation after
	// a transient failure (ErrTransient: a response timeout, i.e. a frame
	// presumed lost) before latching the error. 0 disables retries.
	// Retries assume lost-request semantics — the request never reached
	// the server — so they require ReadTimeout to be set.
	MaxRetries int
	// RetryBase/RetryMax bound the capped exponential backoff between
	// retries (defaults 1ms and 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the backoff jitter, keeping retry timing
	// reproducible for a fixed seed.
	RetrySeed uint64
}

// WireFaultGater is implemented by WrapConn wrappers whose faults must be
// suspended around framing that cannot be retried (load, train, close).
// fault.Conn implements it.
type WireFaultGater interface {
	SetWireFaults(on bool)
}

// deadlineConn applies per-operation deadlines around a net.Conn.
type deadlineConn struct {
	net.Conn
	opts Options
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.opts.ReadTimeout > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.opts.WriteTimeout > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

const (
	reqSize  = 1 + 8 + 8 + 4
	respSize = 1 + 4 + 8
	// opBatchBegin announces a batch of n operations (n request frames
	// follow; the server answers with a header and n response frames in
	// one flush).
	opBatchBegin = 249
	// opLoadBegin announces a bulk load of n pairs (key/value frames of
	// 16 bytes each follow); opClose ends the session.
	opLoadBegin = 250
	opClose     = 255
	// opTrain asks the server's SUT for its training accounting: kind
	// trainRun runs Train, trainOnline reads OnlineTrainWork. The answer is
	// one response frame with work = work units and visited = model count,
	// zeros when the SUT has nothing to train.
	opTrain     = 251
	trainRun    = 0
	trainOnline = 1

	// maxWireBatch bounds a batch frame count so a corrupt or malicious
	// header cannot force an unbounded allocation server-side.
	maxWireBatch = 1 << 16

	// maxLoadPrealloc bounds how many key/value pairs a load header may
	// pre-size server-side buffers for. Loads larger than this still work —
	// the buffers grow as pair data actually arrives — but a corrupt or
	// malicious header alone can no longer force an unbounded allocation
	// (the opBatchBegin bound, adapted to a stream whose length is
	// legitimately unbounded).
	maxLoadPrealloc = 1 << 16
	// loadBlock is how many 16-byte pairs a bulk load moves per write and
	// per read: 64 KiB, the size of the server's read buffer.
	loadBlock = 1 << 12
)

// Server exposes a SUT factory over TCP. Each accepted connection gets a
// fresh SUT instance, so concurrent benchmark runs are isolated.
type Server struct {
	ln      net.Listener
	factory func() core.SUT
	opts    Options
	wg      sync.WaitGroup
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and returns it. The
// chosen address is available via Addr. No I/O deadlines are applied; use
// ServeOptions to bound waits on dead peers.
func Serve(addr string, factory func() core.SUT) (*Server, error) {
	return ServeOptions(addr, factory, Options{})
}

// ServeOptions is Serve with per-connection I/O deadlines: a client that
// stops mid-session releases its connection (and SUT) after
// opts.ReadTimeout instead of pinning them forever.
func ServeOptions(addr string, factory func() core.SUT, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrListen, addr, err)
	}
	s := &Server{ln: ln, factory: factory, opts: opts}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

// decodeOp decodes a request frame into an operation.
func decodeOp(req []byte) workload.Op {
	return workload.Op{
		Type:      workload.OpType(req[0]),
		Key:       binary.BigEndian.Uint64(req[1:9]),
		Value:     binary.BigEndian.Uint64(req[9:17]),
		ScanLimit: int(binary.BigEndian.Uint32(req[17:21])),
	}
}

// Response flag bits (resp[0]). respFound doubles as the historical
// found=1 byte, so pre-flag peers interoperate for successful ops.
const (
	respFound  = 1 << 0
	respFailed = 1 << 1
)

// batchRespMark tags the header frame of a sequence-numbered batch
// response: marker u8 | n u32 | seq u64 (one respSize frame). Result
// frames only ever use the low flag bits, so the marker cannot collide.
// The header lets the client match a response stream to the batch it sent
// and drain stale duplicates (the delayed answer of a batch it already
// retried) instead of desyncing on them.
const batchRespMark = 0xFE

// encodeResult encodes an op result into a response frame.
func encodeResult(resp []byte, res core.OpResult) {
	resp[0] = 0
	if res.Found {
		resp[0] |= respFound
	}
	if res.Failed {
		resp[0] |= respFailed
	}
	binary.BigEndian.PutUint32(resp[1:5], uint32(res.Visited))
	binary.BigEndian.PutUint64(resp[5:13], uint64(res.Work))
}

// decodeResult decodes a response frame into an op result.
func decodeResult(resp []byte) core.OpResult {
	return core.OpResult{
		Found:   resp[0]&respFound != 0,
		Failed:  resp[0]&respFailed != 0,
		Visited: int(binary.BigEndian.Uint32(resp[1:5])),
		Work:    int64(binary.BigEndian.Uint64(resp[5:13])),
	}
}

func (s *Server) handle(raw net.Conn) {
	sut := s.factory()
	bsut := core.AsBatch(sut)
	conn := &deadlineConn{Conn: raw, opts: s.opts}
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	req := make([]byte, reqSize)
	resp := make([]byte, respSize)
	// Duplicate-batch detection: the last executed batch's sequence number
	// and its encoded response frames. A re-sent batch (same seq) means the
	// client timed out waiting for a response that was delayed or lost
	// *after* execution — replaying the cached frames instead of
	// re-executing keeps retried Puts from double-applying. At most
	// maxWireBatch*respSize (~832 KiB) per connection.
	var lastSeq uint64
	var lastResp []byte
	// One batch's ops and results, grown on demand and reused: n is bounded
	// by maxWireBatch, and nothing keeps either past the batch.
	var ops []workload.Op
	var results []core.OpResult
	for {
		if _, err := io.ReadFull(r, req); err != nil {
			return
		}
		switch req[0] {
		case opClose:
			w.Flush()
			return
		case opBatchBegin:
			n := binary.BigEndian.Uint64(req[1:9])
			seq := binary.BigEndian.Uint64(req[9:17])
			if n == 0 || n > maxWireBatch || seq == 0 {
				return
			}
			if uint64(cap(ops)) < n {
				ops, results = make([]workload.Op, n), make([]core.OpResult, n)
			}
			ops, results = ops[:n], results[:n]
			for i := range ops {
				if _, err := io.ReadFull(r, req); err != nil {
					return
				}
				ops[i] = decodeOp(req)
			}
			if seq == lastSeq {
				// A duplicate must re-send the identical batch; a size
				// mismatch means the stream desynced beyond repair.
				if (int(n)+1)*respSize != len(lastResp) {
					return
				}
			} else {
				bsut.DoBatch(ops, results)
				// Build the tagged response (header + frames) and cache it
				// for duplicate replay.
				lastSeq = seq
				if need := (int(n) + 1) * respSize; cap(lastResp) < need {
					lastResp = make([]byte, 0, need)
				}
				lastResp = lastResp[:0]
				var hdr [respSize]byte
				hdr[0] = batchRespMark
				binary.BigEndian.PutUint32(hdr[1:5], uint32(n))
				binary.BigEndian.PutUint64(hdr[5:13], seq)
				lastResp = append(lastResp, hdr[:]...)
				for _, res := range results {
					encodeResult(resp, res)
					lastResp = append(lastResp, resp...)
				}
			}
			if _, err := w.Write(lastResp); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		case opLoadBegin:
			n := binary.BigEndian.Uint64(req[1:9])
			// Pre-size only up to maxLoadPrealloc pairs, and the read block
			// to min(n, loadBlock): beyond that the buffers double, up to n,
			// as the data actually arrives, so the header cannot force an
			// allocation the peer never backs with bytes.
			keys := make([]uint64, 0, min(n, maxLoadPrealloc))
			values := make([]uint64, 0, min(n, maxLoadPrealloc))
			block := make([]byte, 16*min(n, loadBlock))
			for left := n; left > 0; left -= min(left, loadBlock) {
				b := block[:16*min(left, loadBlock)]
				if _, err := io.ReadFull(r, b); err != nil {
					return
				}
				if len(keys)+len(b)/16 > cap(keys) {
					grow := int(min(left, uint64(cap(keys))))
					keys, values = slices.Grow(keys, grow), slices.Grow(values, grow)
				}
				for ; len(b) > 0; b = b[16:] {
					keys = append(keys, binary.BigEndian.Uint64(b[0:8]))
					values = append(values, binary.BigEndian.Uint64(b[8:16]))
				}
			}
			sut.Load(keys, values)
			// Ack with an empty response frame.
			encodeResult(resp, core.OpResult{Found: true})
			if _, err := w.Write(resp); err != nil {
				return
			}
			w.Flush()
		case opTrain:
			var rep core.TrainReport
			switch req[1] {
			case trainRun:
				if tr, ok := sut.(core.Trainable); ok {
					rep = tr.Train()
				}
			case trainOnline:
				if ol, ok := sut.(core.OnlineLearner); ok {
					rep.WorkUnits = ol.OnlineTrainWork()
				}
			default:
				return
			}
			encodeResult(resp, core.OpResult{Visited: rep.Models, Work: rep.WorkUnits})
			if _, err := w.Write(resp); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		default:
			// Not a frame this protocol has: the stream is desynced or
			// foreign, and nothing in it may run as an op.
			return
		}
	}
}

// Client is a core.SUT whose operations, training steps included, execute
// on a remote Server. It is
// not safe for concurrent use (matching the SUT contract), and needs no
// more: core.Runner.RunOn calls its one SUT from one goroutine, and a
// dispatch of Runner.Batch ops is one DoBatch here, i.e. one wire round
// trip.
//
// The SUT interface cannot return I/O errors, so the first failure is
// latched: every later operation short-circuits to a zero result and
// Err() reports what went wrong — callers driving a remote SUT should
// check it when the run finishes (cmd/lsbench does).
type Client struct {
	conn *deadlineConn
	r    *bufio.Reader
	name string
	err  error
	req  [reqSize]byte
	resp [respSize]byte
	// scratch buffers batch frames so a whole batch goes out in one
	// write and comes back in one read loop (DoBatch).
	scratch []byte

	// batchSeq numbers this session's batch chunks (1, 2, …). A retry
	// re-sends the same number, letting the server detect the duplicate
	// and replay its cached answer instead of re-executing the ops.
	batchSeq uint64

	// Retry state: transient failures (ErrTransient — a presumed-lost
	// frame) are re-sent up to maxRetries times with capped exponential
	// backoff and seeded jitter before the error latches.
	maxRetries int
	retryBase  time.Duration
	retryMax   time.Duration
	retryRNG   *stats.RNG
	retries    int64
	gater      WireFaultGater
}

// Dial connects to a netdriver server with no I/O deadlines.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects with per-operation I/O deadlines: a dead or
// stalled server surfaces as an error on the client (via Err and DoErr)
// after opts.ReadTimeout instead of hanging the driver forever. With
// opts.MaxRetries set, transient failures back off and retry first.
func DialOptions(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrDial, addr, err)
	}
	var gater WireFaultGater
	if opts.WrapConn != nil {
		wrapped := opts.WrapConn(conn)
		gater, _ = wrapped.(WireFaultGater)
		conn = wrapped
	}
	base := opts.RetryBase
	if base <= 0 {
		base = time.Millisecond
	}
	max := opts.RetryMax
	if max < base {
		max = 250 * time.Millisecond
	}
	dc := &deadlineConn{Conn: conn, opts: opts}
	return &Client{
		conn:       dc,
		r:          bufio.NewReaderSize(dc, 1<<16),
		name:       "remote(" + addr + ")",
		maxRetries: opts.MaxRetries,
		retryBase:  base,
		retryMax:   max,
		retryRNG:   stats.NewRNG(opts.RetrySeed ^ 0xFA17),
		gater:      gater,
	}, nil
}

// Retries returns how many transient-failure retries the session made.
func (c *Client) Retries() int64 { return c.retries }

// backoff sleeps out the Backoff delay for retry attempt (0-based).
func (c *Client) backoff(attempt int) {
	time.Sleep(Backoff(c.retryBase, c.retryMax, attempt, c.retryRNG.Float64()))
}

// setWireFaults gates WrapConn fault middleware around framing that
// cannot tolerate drops.
func (c *Client) setWireFaults(on bool) {
	if c.gater != nil {
		c.gater.SetWireFaults(on)
	}
}

// Name implements core.SUT.
func (c *Client) Name() string { return c.name }

// Err returns the first I/O error the session hit, if any. Once set, all
// subsequent operations are no-ops returning zero results.
func (c *Client) Err() error { return c.err }

// fail latches the session's first error as a stage-tagged, classified
// WireError (errors.Is-able against ErrTransient/ErrFatal).
func (c *Client) fail(stage string, err error) error {
	if c.err == nil {
		c.err = wireErr(stage, err)
	}
	return c.err
}

// Close terminates the session. Wire faults are gated off: the close
// frame must reach the server so it releases the connection promptly.
func (c *Client) Close() error {
	c.setWireFaults(false)
	c.req[0] = opClose
	c.conn.Write(c.req[:])
	return c.conn.Close()
}

// Load implements core.SUT by streaming the pairs to the server. Wire
// faults are gated off for the duration: the load stream is one logical
// frame spread over many writes, and a dropped chunk would desync the
// session rather than simulate a lost request.
func (c *Client) Load(keys, values []uint64) {
	if c.err != nil {
		return
	}
	c.setWireFaults(false)
	defer c.setWireFaults(true)
	c.req[0] = opLoadBegin
	binary.BigEndian.PutUint64(c.req[1:9], uint64(len(keys)))
	if _, err := c.conn.Write(c.req[:]); err != nil {
		c.fail("load", err)
		return
	}
	block := make([]byte, 0, 16*min(len(keys), loadBlock))
	for i, k := range keys {
		block = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(block, k), values[i])
		if len(block) == cap(block) || i == len(keys)-1 {
			if _, err := c.conn.Write(block); err != nil {
				c.fail("load", err)
				return
			}
			block = block[:0]
		}
	}
	if _, err := io.ReadFull(c.r, c.resp[:]); err != nil { // ack
		c.fail("load ack", err)
	}
}

// Train implements core.Trainable: the remote SUT runs its training step
// and reports it back. A SUT with nothing to train reports zeros, which the
// runner ignores.
func (c *Client) Train() core.TrainReport {
	res := c.train(trainRun)
	return core.TrainReport{WorkUnits: res.Work, Models: res.Visited}
}

// OnlineTrainWork implements core.OnlineLearner by reading the remote SUT's
// counter.
func (c *Client) OnlineTrainWork() int64 { return c.train(trainOnline).Work }

// train sends one opTrain frame of the given kind and decodes the answer.
// Wire faults are gated off, as for Load: a training step is not idempotent,
// so a lost frame cannot be retried.
func (c *Client) train(kind byte) core.OpResult {
	if c.err != nil {
		return core.OpResult{}
	}
	c.setWireFaults(false)
	defer c.setWireFaults(true)
	c.req = [reqSize]byte{opTrain, kind}
	if _, err := c.conn.Write(c.req[:]); err != nil {
		c.fail("train", err)
		return core.OpResult{}
	}
	if _, err := io.ReadFull(c.r, c.resp[:]); err != nil {
		c.fail("train reply", err)
		return core.OpResult{}
	}
	return decodeResult(c.resp[:])
}

// Do implements core.SUT: a batch of one.
func (c *Client) Do(op workload.Op) core.OpResult {
	res, _ := c.DoErr(op)
	return res
}

// DoErr executes one operation and surfaces the I/O error, if any —
// callers that can handle failure should prefer it over the
// error-swallowing SUT-interface Do. It is a batch of one, so it retries
// and stays idempotent exactly as DoBatch does.
func (c *Client) DoErr(op workload.Op) (core.OpResult, error) {
	var out [1]core.OpResult
	c.doBatchChunk([]workload.Op{op}, out[:])
	return out[0], c.err
}

// DoBatch implements core.BatchSUT: one batch header plus len(ops) request
// frames leave in a single write, and the server answers with a header and
// len(ops) response frames after one flush — one network round trip per
// batch instead of one per operation. Oversized batches are split to the
// protocol's frame-count bound.
func (c *Client) DoBatch(ops []workload.Op, out []core.OpResult) {
	for len(ops) > maxWireBatch {
		c.doBatchChunk(ops[:maxWireBatch], out[:maxWireBatch])
		ops, out = ops[maxWireBatch:], out[maxWireBatch:]
	}
	c.doBatchChunk(ops, out)
}

func (c *Client) doBatchChunk(ops []workload.Op, out []core.OpResult) {
	if len(ops) == 0 {
		return
	}
	if c.err != nil {
		clear(out[:len(ops)])
		return
	}
	c.batchSeq++
	need := reqSize * (1 + len(ops))
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:0]
	var hdr [reqSize]byte
	hdr[0] = opBatchBegin
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(ops)))
	binary.BigEndian.PutUint64(hdr[9:17], c.batchSeq)
	buf = append(buf, hdr[:]...)
	for _, op := range ops {
		var f [reqSize]byte
		f[0] = byte(op.Type)
		binary.BigEndian.PutUint64(f[1:9], op.Key)
		binary.BigEndian.PutUint64(f[9:17], op.Value)
		binary.BigEndian.PutUint32(f[17:21], uint32(op.ScanLimit))
		buf = append(buf, f[:]...)
	}
	for attempt := 0; ; attempt++ {
		if _, err := c.conn.Write(buf); err != nil {
			c.fail("request", err)
			clear(out[:len(ops)])
			return
		}
		atHeader, err := c.readBatchResponse(c.batchSeq, out[:len(ops)])
		if err == nil {
			return
		}
		we := wireErr("response", err)
		// Re-send only when the failure struck at a response-stream
		// boundary (the stream still frame-aligned). The sequence number
		// makes the re-send safe either way: if the batch never arrived
		// the server executes it now; if it did arrive (the response was
		// delayed or lost, not the request), the server recognizes the
		// duplicate and replays its cached answer without re-executing.
		if atHeader && we.Class == ErrTransient && attempt < c.maxRetries {
			c.retries++
			c.backoff(attempt)
			continue
		}
		if c.err == nil {
			c.err = we
		}
		clear(out[:len(ops)])
		return
	}
}

// readBatchResponse reads tagged batch response streams until the one
// numbered seq arrives, decoding its frames into out. A stale duplicate —
// the delayed answer of an earlier batch this session already resolved
// through a retry — is drained and discarded by its header instead of
// desyncing the stream. atHeader reports whether a failure struck at a
// header boundary, where the stream is still frame-aligned and a re-send
// is safe.
func (c *Client) readBatchResponse(seq uint64, out []core.OpResult) (atHeader bool, err error) {
	for {
		if _, err := io.ReadFull(c.r, c.resp[:]); err != nil {
			return true, err
		}
		if c.resp[0] != batchRespMark {
			return false, fmt.Errorf("batch response desync: marker %#x, want %#x", c.resp[0], batchRespMark)
		}
		n := int(binary.BigEndian.Uint32(c.resp[1:5]))
		got := binary.BigEndian.Uint64(c.resp[5:13])
		if got > seq || n > maxWireBatch || (got == seq && n != len(out)) {
			return false, fmt.Errorf("batch response desync: got seq %d (%d frames), want seq %d (%d frames)",
				got, n, seq, len(out))
		}
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(c.r, c.resp[:]); err != nil {
				return false, err
			}
			if got == seq {
				out[i] = decodeResult(c.resp[:])
			}
		}
		if got == seq {
			return false, nil
		}
	}
}

var (
	_ core.SUT           = (*Client)(nil)
	_ core.BatchSUT      = (*Client)(nil)
	_ core.Trainable     = (*Client)(nil)
	_ core.OnlineLearner = (*Client)(nil)
)
