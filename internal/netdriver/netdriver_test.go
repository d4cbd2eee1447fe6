package netdriver

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/driver"
	"repro/internal/workload"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestRemoteOps(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Load([]uint64{10, 20, 30}, []uint64{1, 2, 3})

	if res := c.Do(workload.Op{Type: workload.Get, Key: 20}); !res.Found {
		t.Fatal("remote Get missed loaded key")
	}
	if res := c.Do(workload.Op{Type: workload.Get, Key: 99}); res.Found {
		t.Fatal("remote Get found absent key")
	}
	c.Do(workload.Op{Type: workload.Put, Key: 40, Value: 4})
	if res := c.Do(workload.Op{Type: workload.Get, Key: 40}); !res.Found {
		t.Fatal("remote Put lost")
	}
	if res := c.Do(workload.Op{Type: workload.Delete, Key: 10}); !res.Found {
		t.Fatal("remote Delete failed")
	}
	res := c.Do(workload.Op{Type: workload.Scan, Key: 0, ScanLimit: 100})
	if res.Visited != 3 { // 20, 30, 40 remain
		t.Fatalf("remote Scan visited %d", res.Visited)
	}
	if res.Work <= 0 {
		t.Fatal("no work units over the wire")
	}
}

func TestRemoteMatchesLocal(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := core.NewBTreeSUT()

	keys := distgen.UniqueKeys(distgen.NewUniform(1, 0, 1<<30), 500)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	c.Load(keys, vals)
	local.Load(keys, vals)

	// Wire ops come off a workload.Source, as the driver issues them.
	src := workload.NewSource(workload.Spec{
		Mix:    workload.Balanced,
		Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<30)},
	}, nil, 3)
	const total = 2000
	ops := make([]workload.Op, total)
	gaps := make([]int64, total)
	src.Fill(ops, gaps, 0, total)
	for i, op := range ops {
		r1 := c.Do(op)
		r2 := local.Do(op)
		if r1.Found != r2.Found || r1.Visited != r2.Visited {
			t.Fatalf("op %d (%+v): remote (%+v) != local (%+v)", i, op, r1, r2)
		}
	}
}

// TestBulkLoadBlocks loads more pairs than maxLoadPrealloc, ending
// mid-block, and checks every loaded key answers as on a local B+ tree.
func TestBulkLoadBlocks(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := core.NewBTreeSUT()
	keys := distgen.UniqueKeys(distgen.NewUniform(4, 0, 1<<40), maxLoadPrealloc+4465)
	if len(keys)%loadBlock == 0 {
		t.Fatal("the load must end mid-block")
	}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) * 3
	}
	c.Load(keys, vals)
	local.Load(keys, vals)
	// Each loaded key and its successor, which is almost never loaded.
	ops := make([]workload.Op, 0, 2*len(keys))
	for _, k := range keys {
		ops = append(ops, workload.Op{Type: workload.Get, Key: k}, workload.Op{Type: workload.Get, Key: k + 1})
	}
	remote := make([]core.OpResult, len(ops))
	c.DoBatch(ops, remote)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if want := local.Do(op); remote[i] != want || (i%2 == 0 && !want.Found) {
			t.Fatalf("Get %d: remote %+v, local %+v", op.Key, remote[i], want)
		}
	}
}

func TestConnectionsIsolated(t *testing.T) {
	srv := startServer(t)
	a, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.Do(workload.Op{Type: workload.Put, Key: 7, Value: 1})
	if res := b.Do(workload.Op{Type: workload.Get, Key: 7}); res.Found {
		t.Fatal("connections share a SUT")
	}
}

func TestDriverOverNetwork(t *testing.T) {
	// The real-time driver runs unchanged against the remote SUT — the
	// paper's separate-machine setup end to end.
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := driver.Run(c, workload.Spec{
		Mix:    workload.ReadHeavy,
		Access: distgen.Static{G: distgen.NewUniform(4, 0, 1<<30)},
	}, distgen.NewUniform(5, 0, 1<<30), 1000,
		driver.Options{Workers: 1, Ops: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2000 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Latency.Quantile(0.5) <= 0 {
		t.Fatal("no network latency measured")
	}
}

func TestDriverReplayOverNetwork(t *testing.T) {
	// Record two streams as every recording is made — a materialized
	// scenario written down — then replay the trace through the driver
	// against the remote SUT: every wire op is drawn from a workload.Source
	// (one TraceReader per worker), and the remote run must issue exactly
	// the recorded op count.
	spec := workload.Spec{
		Mix:    workload.ReadHeavy,
		Access: distgen.Static{G: distgen.NewUniform(4, 0, 1<<30)},
	}
	tr, err := core.Scenario{
		Name: "net-replay", Seed: 6, InitialKeys: []uint64{},
		Phases: []core.Phase{{Name: "worker-0", Ops: 1000, Workload: spec}, {Name: "worker-1", Ops: 1000, Workload: spec}},
	}.Materialize().Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) != 2 || tr.TotalOps() != 2000 {
		t.Fatalf("recorded %d phases / %d ops", len(tr.Phases), tr.TotalOps())
	}

	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := driver.Run(c, workload.Spec{}, distgen.NewUniform(5, 0, 1<<30), 1000,
		driver.Options{
			Workers: 2,
			Ops:     tr.TotalOps(),
			Batch:   16,
			Sources: func(wk int) workload.Source { return tr.PhaseReader(wk) },
		})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Completed)+int(res.Outcomes.Failed) != tr.TotalOps() {
		t.Fatalf("replayed %d+%d ops, want %d", res.Completed, res.Outcomes.Failed, tr.TotalOps())
	}
}

// batchSizes logs the size of every batch the server hands its SUT.
type batchSizes struct {
	core.SUT
	batches *[]int
}

func (c batchSizes) DoBatch(ops []workload.Op, out []core.OpResult) {
	*c.batches = append(*c.batches, len(ops))
	for i, op := range ops {
		out[i] = c.Do(op)
	}
}

// TestDriverRoundIsOneRoundTrip: a round of the driver reaches the server as
// one batch frame carrying one op per worker, so 4 workers make a quarter of
// the round trips of 1 — and, the ops being the same, tally the same
// outcomes.
func TestDriverRoundIsOneRoundTrip(t *testing.T) {
	// Outcomes that do not depend on op order: gets of loaded (even) and
	// absent (odd) keys, and puts that overwrite loaded keys.
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	ops := make([]workload.Op, 4000)
	for i := range ops {
		ops[i] = workload.Op{Type: workload.Get, Key: uint64(i * 7919 % 2000)}
		if i%8 == 7 {
			ops[i] = workload.Op{Type: workload.Put, Key: keys[i%len(keys)], Value: uint64(i)}
		}
	}
	run := func(workers int) (core.OpOutcomes, []int) {
		var batches []int
		srv, err := Serve("127.0.0.1:0", func() core.SUT { return batchSizes{core.NewBTreeSUT(), &batches} })
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(srv.Addr())
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		c.Load(keys, core.LoadValues(keys))
		share := len(ops) / workers
		res, err := driver.Run(c, workload.Spec{}, nil, 0, driver.Options{Workers: workers, Batch: 1, Ops: len(ops),
			Sources: func(w int) workload.Source {
				return workload.NewTraceReader("w", ops[w*share:(w+1)*share], nil)
			}})
		retries, cerr := c.Retries(), c.Err()
		c.Close()
		srv.Close() // waits for the connection's goroutine: batches is safe to read
		if err != nil || cerr != nil {
			t.Fatalf("workers=%d: run error %v, session error %v", workers, err, cerr)
		}
		if retries != 0 || res.Completed != int64(len(ops)) {
			t.Fatalf("workers=%d: %d retries, %d ops completed", workers, retries, res.Completed)
		}
		return res.Outcomes, batches
	}
	one, single := run(1)
	four, rounds := run(4)
	if len(single) != 4000 || len(rounds) != 1000 {
		t.Fatalf("server saw %d and %d batches, want 4000 and 1000", len(single), len(rounds))
	}
	for i, n := range rounds {
		if n != 4 {
			t.Fatalf("round %d carried %d ops, want one per worker", i, n)
		}
	}
	if one != four || one.Found == 0 || one.NotFound == 0 {
		t.Fatalf("outcomes differ: 1 worker %+v, 4 workers %+v", one, four)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestClientReadDeadline(t *testing.T) {
	// A server that accepts and then never responds: the client must
	// surface an error after its read timeout instead of hanging.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn) // swallow requests, answer nothing
	}()

	c, err := DialOptions(ln.Addr().String(), Options{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan struct{})
	var res core.OpResult
	var opErr error
	go func() {
		res, opErr = c.DoErr(workload.Op{Type: workload.Get, Key: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do hung on a dead peer despite the read deadline")
	}
	if opErr == nil {
		t.Fatalf("DoErr returned no error on a dead peer (res %+v)", res)
	}
	var nerr net.Error
	if !errors.As(opErr, &nerr) || !nerr.Timeout() {
		t.Fatalf("error is not a timeout: %v", opErr)
	}
	if c.Err() == nil {
		t.Fatal("session error not latched")
	}
	// Subsequent ops short-circuit on the latched error.
	if _, err := c.DoErr(workload.Op{Type: workload.Get, Key: 2}); err == nil {
		t.Fatal("latched session still issuing ops")
	}
	// The error-swallowing SUT-interface path stays usable (zero result).
	if got := c.Do(workload.Op{Type: workload.Get, Key: 3}); got.Found {
		t.Fatal("failed session returned a found result")
	}
}

func TestServerReadDeadline(t *testing.T) {
	// A client that connects and goes silent: with a read deadline the
	// server must drop the connection rather than pin it forever, so
	// Close() (which waits on handlers) returns promptly.
	srv, err := ServeOptions("127.0.0.1:0", core.NewBTreeSUT, Options{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer conn.Close()

	// The server should close our end once its read deadline fires.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the silent connection open")
	}

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the dead connection")
	}
}

func TestDeadlinesDontBreakHealthySessions(t *testing.T) {
	srv, err := ServeOptions("127.0.0.1:0", core.NewBTreeSUT, Options{
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOptions(srv.Addr(), Options{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Load([]uint64{1, 2, 3}, []uint64{10, 20, 30})
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	for i := 0; i < 100; i++ {
		res, err := c.DoErr(workload.Op{Type: workload.Get, Key: 2})
		if err != nil || !res.Found {
			t.Fatalf("op %d: res=%+v err=%v", i, res, err)
		}
	}
}

// TestBatchWire drives a mixed batch through the batched frame path and
// checks the results match per-op dispatch against an identical local SUT.
func TestBatchWire(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := []uint64{10, 20, 30, 40, 50}
	vals := []uint64{1, 2, 3, 4, 5}
	c.Load(keys, vals)
	local := core.NewBTreeSUT()
	local.Load(keys, vals)

	ops := []workload.Op{
		{Type: workload.Get, Key: 30},
		{Type: workload.Get, Key: 99},
		{Type: workload.Put, Key: 60, Value: 6},
		{Type: workload.Get, Key: 60},
		{Type: workload.Delete, Key: 10},
		{Type: workload.Scan, Key: 0, ScanLimit: 100},
		{Type: workload.Get, Key: 50},
		{Type: workload.Get, Key: 20},
	}
	got := make([]core.OpResult, len(ops))
	c.DoBatch(ops, got)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	want := make([]core.OpResult, len(ops))
	core.AsBatch(local).DoBatch(ops, want)
	for i := range ops {
		if got[i] != want[i] {
			t.Fatalf("op %d (%v): remote %+v != local %+v", i, ops[i], got[i], want[i])
		}
	}
}

// TestBatchWireLarge pushes a batch bigger than the write buffer to make
// sure framing survives segmentation, and follows it with per-op traffic
// on the same session.
func TestBatchWireLarge(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 8192
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 3
		vals[i] = uint64(i)
	}
	c.Load(keys, vals)

	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = workload.Op{Type: workload.Get, Key: uint64((i * 7) % (n * 3))}
	}
	out := make([]core.OpResult, n)
	c.DoBatch(ops, out)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	found := 0
	for i, r := range out {
		if r.Found != (ops[i].Key%3 == 0) {
			t.Fatalf("op %d key %d: Found=%v", i, ops[i].Key, r.Found)
		}
		if r.Found {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no batch op found anything")
	}
	// The session keeps working per-op after a batch.
	if res := c.Do(workload.Op{Type: workload.Get, Key: 3}); !res.Found {
		t.Fatal("per-op Get after batch missed")
	}
}

// TestBatchWireErrorLatch: batch dispatch against a dead server latches the
// session error and zeroes results instead of hanging.
func TestBatchWireErrorLatch(t *testing.T) {
	srv, err := ServeOptions("127.0.0.1:0", core.NewBTreeSUT,
		Options{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(srv.Addr(), Options{ReadTimeout: 200 * time.Millisecond, WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()

	ops := []workload.Op{{Type: workload.Get, Key: 1}, {Type: workload.Get, Key: 2}}
	out := []core.OpResult{{Found: true, Work: 99}, {Found: true, Work: 99}}
	c.DoBatch(ops, out)
	if c.Err() == nil {
		t.Fatal("no latched error after server close")
	}
	for i, r := range out {
		if r != (core.OpResult{}) {
			t.Fatalf("result %d not zeroed after error: %+v", i, r)
		}
	}
}
