package netdriver

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// wireModel is the reference reading of a client byte stream: how many ops
// a server must execute, how many loads, how many training frames it must
// put to the SUT, and how many response bytes it must send before the
// session ends — at end of input, at a close frame, or at the first frame
// the protocol does not have.
func wireModel(data []byte) (ops, loads, trains, respBytes int) {
	var lastSeq, lastN uint64
	for len(data) >= reqSize {
		first, kind, n := data[0], data[1], binary.BigEndian.Uint64(data[1:9])
		seq := binary.BigEndian.Uint64(data[9:17])
		data = data[reqSize:]
		switch first {
		case opBatchBegin:
			if n == 0 || n > maxWireBatch || seq == 0 || uint64(len(data)) < n*reqSize {
				return
			}
			data = data[n*reqSize:]
			if seq != lastSeq {
				ops += int(n)
				lastSeq, lastN = seq, n
			} else if n != lastN {
				return // a duplicate of another size: desynced
			}
			respBytes += (int(n) + 1) * respSize
		case opLoadBegin:
			if n > uint64(len(data))/16 {
				return
			}
			data = data[n*16:]
			loads++
			respBytes += respSize
		case opTrain:
			if kind != trainRun && kind != trainOnline {
				return
			}
			trains++
			respBytes += respSize
		default: // opClose, and every frame the protocol does not have
			return
		}
	}
	return
}

// wireRecorder is the SUT behind the fuzzed server: it only counts what
// reaches it, so the fuzzer exercises the handler and not an index.
type wireRecorder struct{ ops, loads, trains int }

func (r *wireRecorder) Name() string       { return "recorder" }
func (r *wireRecorder) Load(_, _ []uint64) { r.loads++ }
func (r *wireRecorder) Do(workload.Op) core.OpResult {
	r.ops++
	return core.OpResult{Work: 1}
}
func (r *wireRecorder) Train() core.TrainReport {
	r.trains++
	return core.TrainReport{WorkUnits: 1, Models: 1}
}
func (r *wireRecorder) OnlineTrainWork() int64 {
	r.trains++
	return 1
}

// wireFrame builds one request-sized frame.
func wireFrame(first byte, a, b uint64) []byte {
	f := make([]byte, reqSize)
	f[0] = first
	binary.BigEndian.PutUint64(f[1:9], a)
	binary.BigEndian.PutUint64(f[9:17], b)
	return f
}

// FuzzWireFrame feeds arbitrary bytes to the server's connection handler.
// Whatever arrives, the handler must not panic; must hand the SUT exactly
// the ops and loads the reference reading finds, and answer them — so a
// frame of unknown type, a batch with seq 0 or one with more than
// maxWireBatch ops runs nothing and ends the session; must not allocate on
// a header's word alone past what maxWireBatch and maxLoadPrealloc allow;
// and must return once the peer is gone.
func FuzzWireFrame(f *testing.F) {
	get := wireFrame(byte(workload.Get), 7, 0)
	put := wireFrame(byte(workload.Put), 7, 70)
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	batch := cat(wireFrame(opBatchBegin, 2, 1), put, get)
	f.Add(batch)
	f.Add(cat(batch, batch)) // a duplicate: replayed, not re-run
	f.Add(cat(wireFrame(opLoadBegin, 2, 0), make([]byte, 32), batch))
	f.Add(cat(batch, wireFrame(opClose, 0, 0), batch))
	f.Add(cat(get, batch))                                         // an unknown op byte
	f.Add(cat(wireFrame(opBatchBegin, 2, 0), put, get))            // seq == 0
	f.Add(cat(wireFrame(opBatchBegin, maxWireBatch+1, 1), put))    // n > maxWireBatch
	f.Add(cat(wireFrame(opLoadBegin, 1<<40, 0), make([]byte, 48))) // a load no peer could back
	f.Add(cat(batch, wireFrame(opBatchBegin, 1, 1), put))          // a duplicate of another size
	f.Add(cat(wireFrame(opTrain, trainRun<<56, 0), batch, wireFrame(opTrain, trainOnline<<56, 0)))
	f.Add(cat(wireFrame(opTrain, 2<<56, 0), batch)) // a training frame of unknown kind
	f.Add(cat(wireFrame(opLoadBegin, loadBlock+3, 0), make([]byte, 16*(loadBlock+3)), batch))
	var tiny []byte // one-pair loads: each sizes its own block
	for i := 0; i < 64; i++ {
		tiny = cat(tiny, wireFrame(opLoadBegin, 1, 0), make([]byte, 16))
	}
	f.Add(cat(tiny, batch))
	f.Add(cat(wireFrame(opLoadBegin, 2*loadBlock, 0), make([]byte, 16*(loadBlock+5)))) // cut in its second block
	f.Fuzz(func(t *testing.T, data []byte) {
		wantOps, wantLoads, wantTrains, wantBytes := wireModel(data)
		rec := &wireRecorder{}
		srv := &Server{factory: func() core.SUT { return rec }}
		client, server := net.Pipe()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			defer server.Close()
			srv.handle(server)
		}()
		written := make(chan struct{})
		go func() {
			defer close(written)
			// The handler may hang up mid-stream; what it left unread is
			// the point, not an error.
			_, _ = client.Write(data)
		}()
		// Take every answer the frames call for and let the handler read
		// or refuse the rest, then hang up: the handler is waiting for a
		// next frame, or has already ended the session.
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(client, make([]byte, wantBytes)); err != nil {
			t.Fatalf("reading the %d response bytes the frames call for: %v", wantBytes, err)
		}
		waitFor := func(done <-chan struct{}, what string) {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal(what)
			}
		}
		waitFor(written, "handler neither read nor refused the whole input")
		client.Close()
		waitFor(handled, "handler still running after the peer hung up")
		runtime.ReadMemStats(&after)

		if rec.ops != wantOps || rec.loads != wantLoads || rec.trains != wantTrains {
			t.Fatalf("SUT saw %d ops, %d loads and %d training frames, the frames hold %d, %d and %d",
				rec.ops, rec.loads, rec.trains, wantOps, wantLoads, wantTrains)
		}
		// One unbacked header may cost up to maxWireBatch ops or
		// maxLoadPrealloc pairs (about 2 MiB); everything else is paid for
		// by bytes that arrived.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+1024*len(data)); got > bound {
			t.Fatalf("handler allocated %d bytes on %d bytes of input (bound %d)", got, len(data), bound)
		}
	})
}
