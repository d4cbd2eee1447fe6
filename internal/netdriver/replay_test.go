package netdriver

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestLoadHeaderBounded sends a load header claiming 2^40 pairs backed by
// almost no data. The unbounded pre-allocation this guards against would
// take the whole process down with it (makeslice panic), so surviving the
// frame and serving the next connection is the assertion.
func TestLoadHeaderBounded(t *testing.T) {
	srv := startServer(t)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	req := make([]byte, reqSize)
	req[0] = opLoadBegin
	binary.BigEndian.PutUint64(req[1:9], 1<<40) // a claim no peer could back
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	// A few real pairs, then hang up mid-"load": the server must discard
	// the session without ballooning memory first.
	pair := make([]byte, 16)
	for i := 0; i < 3; i++ {
		binary.BigEndian.PutUint64(pair[0:8], uint64(i))
		conn.Write(pair)
	}
	conn.Close()

	// The server survived: a fresh session works end to end.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Load([]uint64{1, 2}, []uint64{10, 20})
	if res := c.Do(workload.Op{Type: workload.Get, Key: 2}); !res.Found {
		t.Fatal("server did not survive oversized load header")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("session error after oversized-header attack: %v", err)
	}
}

// countingSUT counts Put executions per key so a test can prove an op ran
// exactly once. Counts are mutex-guarded: the server runs each connection
// on its own goroutine.
type countingSUT struct {
	inner core.SUT
	mu    sync.Mutex
	puts  map[uint64]int
	// slowFirst is how long the first Do takes to start.
	slowFirst time.Duration
	slept     sync.Once
}

func (s *countingSUT) Name() string               { return s.inner.Name() }
func (s *countingSUT) Load(keys, values []uint64) { s.inner.Load(keys, values) }
func (s *countingSUT) Do(op workload.Op) core.OpResult {
	s.slept.Do(func() { time.Sleep(s.slowFirst) })
	if op.Type == workload.Put {
		s.mu.Lock()
		s.puts[op.Key]++
		s.mu.Unlock()
	}
	return s.inner.Do(op)
}
func (s *countingSUT) putCount(key uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts[key]
}

// holdProxy relays client⇄server TCP traffic, optionally impounding the
// server→client direction — the "response delayed in flight" failure that
// makes a client retry a batch the server already executed.
type holdProxy struct {
	ln net.Listener

	mu      sync.Mutex
	holding bool
	held    []byte
	client  net.Conn
}

func newHoldProxy(t *testing.T, backend string) *holdProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &holdProxy{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", backend)
		if err != nil {
			client.Close()
			return
		}
		p.mu.Lock()
		p.client = client
		p.mu.Unlock()
		go func() {
			io.Copy(server, client) // requests pass through untouched
			server.Close()
		}()
		go p.relay(server, client)
	}()
	return p
}

// relay forwards server→client bytes, impounding them while holding. All
// writes happen under p.mu so released bytes never reorder with live ones.
func (p *holdProxy) relay(server, client net.Conn) {
	buf := make([]byte, 1<<15)
	for {
		n, err := server.Read(buf)
		if n > 0 {
			p.mu.Lock()
			if p.holding {
				p.held = append(p.held, buf[:n]...)
			} else if _, werr := client.Write(buf[:n]); werr != nil {
				p.mu.Unlock()
				return
			}
			p.mu.Unlock()
		}
		if err != nil {
			client.Close()
			return
		}
	}
}

func (p *holdProxy) hold() {
	p.mu.Lock()
	p.holding = true
	p.mu.Unlock()
}

func (p *holdProxy) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.holding = false
	if len(p.held) > 0 && p.client != nil {
		p.client.Write(p.held)
		p.held = nil
	}
}

// TestBatchRetryDoesNotDoubleExecute is the delayed-response drill: the
// server executes a batch of Puts but its response is impounded in flight,
// so the client times out and re-sends the batch — several times — before
// the original answer finally arrives. The per-session sequence number
// must make the server replay its cached answer for every duplicate
// instead of re-executing, and the client must absorb the late duplicate
// answers without desyncing the stream.
func TestBatchRetryDoesNotDoubleExecute(t *testing.T) {
	sut := &countingSUT{inner: core.NewBTreeSUT(), puts: make(map[uint64]int)}
	srv, err := Serve("127.0.0.1:0", func() core.SUT { return sut })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy := newHoldProxy(t, srv.Addr())
	c, err := DialOptions(proxy.ln.Addr().String(), Options{
		ReadTimeout: 60 * time.Millisecond,
		MaxRetries:  8,
		RetryBase:   time.Millisecond,
		RetryMax:    5 * time.Millisecond,
		RetrySeed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Load([]uint64{1000}, []uint64{1})

	const nOps = 10
	ops := make([]workload.Op, nOps)
	for i := range ops {
		ops[i] = workload.Op{Type: workload.Put, Key: uint64(i + 1), Value: uint64(i) * 10}
	}
	out := make([]core.OpResult, nOps)

	proxy.hold()
	release := time.AfterFunc(200*time.Millisecond, proxy.release)
	defer release.Stop()
	c.DoBatch(ops, out)

	if err := c.Err(); err != nil {
		t.Fatalf("batch failed despite retry budget: %v", err)
	}
	if c.Retries() == 0 {
		t.Fatal("response hold did not force a retry; the test exercised nothing")
	}
	for _, op := range ops {
		if n := sut.putCount(op.Key); n != 1 {
			t.Fatalf("key %d executed %d times across %d retries, want exactly 1",
				op.Key, n, c.Retries())
		}
	}
	for i, res := range out {
		if res.Failed || res.Work <= 0 {
			t.Fatalf("op %d result corrupt after replay: %+v", i, res)
		}
	}

	// The stream must stay frame-aligned past the stale duplicate answers:
	// a second batch and a per-op round trip both still work.
	gets := make([]workload.Op, nOps)
	for i := range gets {
		gets[i] = workload.Op{Type: workload.Get, Key: uint64(i + 1)}
	}
	got := make([]core.OpResult, nOps)
	c.DoBatch(gets, got)
	if err := c.Err(); err != nil {
		t.Fatalf("follow-up batch after replay drill: %v", err)
	}
	for i, res := range got {
		if !res.Found {
			t.Fatalf("get %d after replay drill: key missing (%+v)", i, res)
		}
	}
	if res := c.Do(workload.Op{Type: workload.Get, Key: 1000}); !res.Found {
		t.Fatal("per-op round trip after replay drill missed a loaded key")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("session errored after drill: %v", err)
	}
}

// TestSlowOpRetryAppliesOnce is the slow-server drill for the single-op
// path: the server's first op outlasts the client's ReadTimeout, so
// Client.Do re-sends the Put several times before the answer arrives. A
// single op is a sequence-numbered batch of one, so the server must apply
// the Put once and replay its cached answer to every duplicate, and the
// following Do must get its own answer, not a leftover Put answer.
func TestSlowOpRetryAppliesOnce(t *testing.T) {
	sut := &countingSUT{inner: core.NewBTreeSUT(), puts: make(map[uint64]int), slowFirst: 150 * time.Millisecond}
	srv, err := Serve("127.0.0.1:0", func() core.SUT { return sut })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOptions(srv.Addr(), Options{
		ReadTimeout: 40 * time.Millisecond,
		MaxRetries:  8,
		RetryBase:   time.Millisecond,
		RetryMax:    5 * time.Millisecond,
		RetrySeed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Load([]uint64{1000}, []uint64{1})

	c.Do(workload.Op{Type: workload.Put, Key: 5, Value: 50})
	if c.Retries() == 0 {
		t.Fatal("the slow op did not force a retry; the test exercised nothing")
	}
	// A Put answers Found=false, so a stale Put answer shows as a miss.
	if res := c.Do(workload.Op{Type: workload.Get, Key: 1000}); !res.Found {
		t.Fatalf("Get of a loaded key after %d retries got %+v: a stale Put answer", c.Retries(), res)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("session errored: %v", err)
	}
	if n := sut.putCount(5); n != 1 {
		t.Fatalf("Put applied %d times across %d retries, want exactly 1", n, c.Retries())
	}
}
