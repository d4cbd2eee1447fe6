package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

// randomStream draws a stream covering every op type, key deltas in both
// directions, and a spread of gap magnitudes.
func randomStream(seed uint64, n int) ([]Op, []int64) {
	rng := stats.NewRNG(seed)
	ops := make([]Op, n)
	gaps := make([]int64, n)
	for i := range ops {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			ops[i].Type = Get
		case 6, 7:
			ops[i].Type = Put
			ops[i].Value = rng.Uint64()
		case 8:
			ops[i].Type = Delete
		default:
			ops[i].Type = Scan
			ops[i].ScanLimit = 1 + rng.Intn(500)
		}
		ops[i].Key = rng.Uint64() >> uint(rng.Intn(40)) // mixed magnitudes
		if rng.Intn(4) > 0 {
			gaps[i] = int64(rng.Uint64()>>1) % 5_000_000
		}
	}
	return ops, gaps
}

func encodeStream(name string, seed uint64, phases [][2]int, ops []Op, gaps []int64) []byte {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, name, seed)
	for pi, span := range phases {
		w.BeginPhase(pi, "ph", span[1]-span[0])
		// Append in ragged chunks to exercise block buffering.
		for i := span[0]; i < span[1]; {
			n := 1 + (i*7)%613
			if i+n > span[1] {
				n = span[1] - i
			}
			w.Append(ops[i:i+n], gaps[i:i+n])
			i += n
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestTraceRoundTrip encodes and decodes multi-phase random streams and
// requires exact equality — the codec's core property.
func TestTraceRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 17, 4096, 4097, 20_000} {
		ops, gaps := randomStream(uint64(n)+1, n)
		mid := n / 2
		data := encodeStream("rt", 99, [][2]int{{0, mid}, {mid, n}}, ops, gaps)
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Truncated {
			t.Fatalf("n=%d: unexpected truncation", n)
		}
		if tr.Name != "rt" || tr.Seed != 99 || len(tr.Phases) != 2 {
			t.Fatalf("n=%d: meta %+v", n, tr)
		}
		if tr.TotalOps() != n {
			t.Fatalf("n=%d: decoded %d ops", n, tr.TotalOps())
		}
		got := tr.Reader()
		for i := 0; i < n; i++ {
			var o [1]Op
			var g [1]int64
			if got.Fill(o[:], g[:], i, n) != 1 || o[0] != ops[i] || g[0] != gaps[i] {
				t.Fatalf("n=%d: op %d = %+v/%d, want %+v/%d", n, i, o[0], g[0], ops[i], gaps[i])
			}
		}
	}
}

// TestTraceWriteFile: a decoded trace written back out is the bytes it was
// decoded from, however ragged the Appends that first produced them (blocks
// are cut by op count, not by call) — which is why a recording can be the
// pinned streams written in one go. And a recording that fails leaves no
// file behind.
func TestTraceWriteFile(t *testing.T) {
	ops, gaps := randomStream(5, 10_000)
	data := encodeStream("wf", 9, [][2]int{{0, 4500}, {4500, 10_000}}, ops, gaps)
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.lstrace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("rewritten trace differs from its source (%d vs %d bytes)", len(got), len(data))
	}

	boom := errors.New("boom")
	torn := filepath.Join(t.TempDir(), "torn.lstrace")
	err = RecordTraceFile(torn, "x", 1, func(tw *TraceWriter) error {
		tw.Append(ops[:5000], gaps[:5000])
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RecordTraceFile error = %v", err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("failed recording left a file behind (stat: %v)", err)
	}
}

// TestTraceTornTail truncates an encoded trace at every frame-ish offset
// and requires: no error, no partial block, and the decoded stream is an
// exact prefix of the original.
func TestTraceTornTail(t *testing.T) {
	const n = 10_000
	ops, gaps := randomStream(7, n)
	data := encodeStream("torn", 1, [][2]int{{0, n}}, ops, gaps)

	step := len(data)/257 + 1
	sawPartial := false
	for cut := 0; cut < len(data); cut += step {
		tr, err := ReadTrace(bytes.NewReader(data[:cut]))
		if cut < 6 { // inside the fixed header: a real error is correct
			if err == nil {
				t.Fatalf("cut=%d: expected header error", cut)
			}
			continue
		}
		if err != nil {
			// Cuts inside the name/seed varints are still header errors.
			continue
		}
		got := tr.TotalOps()
		if got > n {
			t.Fatalf("cut=%d: decoded %d > %d ops", cut, got, n)
		}
		if got < n {
			// A block-boundary cut reads as a clean (shorter) trace;
			// any other cut must be flagged as truncated.
			sawPartial = true
		}
		flat := tr.Reader()
		for i := 0; i < got; i++ {
			var o [1]Op
			var g [1]int64
			flat.Fill(o[:], g[:], i, got)
			if o[0] != ops[i] || g[0] != gaps[i] {
				t.Fatalf("cut=%d: op %d diverges from original", cut, i)
			}
		}
	}
	if !sawPartial {
		t.Fatal("no truncation point produced a partial trace; test is vacuous")
	}
}

// TestTraceCorruptTail flips bytes inside the final block's payload and
// requires the block to be dropped whole (crc catches it), never decoded
// partially or wrongly.
func TestTraceCorruptTail(t *testing.T) {
	const n = 9000 // > traceBlockOps so several blocks exist
	ops, gaps := randomStream(21, n)
	data := encodeStream("corrupt", 1, [][2]int{{0, n}}, ops, gaps)

	for _, back := range []int{1, 10, 100} {
		mut := append([]byte(nil), data...)
		mut[len(mut)-back] ^= 0xFF
		tr, err := ReadTrace(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("back=%d: %v", back, err)
		}
		if !tr.Truncated {
			t.Fatalf("back=%d: corruption not detected", back)
		}
		got := tr.TotalOps()
		if got >= n {
			t.Fatalf("back=%d: corrupt block not dropped (%d ops)", back, got)
		}
		// Surviving prefix must be intact and block-aligned.
		if got%traceBlockOps != 0 {
			t.Fatalf("back=%d: partial block survived (%d ops)", back, got)
		}
		flat := tr.Reader()
		for i := 0; i < got; i++ {
			var o [1]Op
			var g [1]int64
			flat.Fill(o[:], g[:], i, got)
			if o[0] != ops[i] || g[0] != gaps[i] {
				t.Fatalf("back=%d: op %d diverges", back, i)
			}
		}
	}
}

// FuzzTraceDecode throws arbitrary bytes at the decoder: it must never
// panic, and whatever decodes from a valid prefix must re-encode and
// decode to the same stream.
func FuzzTraceDecode(f *testing.F) {
	ops, gaps := randomStream(3, 500)
	f.Add(encodeStream("seed", 7, [][2]int{{0, 500}}, ops, gaps))
	f.Add([]byte("LSTR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Re-encode and decode: streams must match exactly.
		var buf bytes.Buffer
		w := NewTraceWriter(&buf, tr.Name, tr.Seed)
		for _, p := range tr.Phases {
			w.BeginPhase(p.Index, p.Name, p.DeclaredOps)
			w.Append(p.Ops, p.Gaps)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		tr2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if tr2.TotalOps() != tr.TotalOps() || len(tr2.Phases) != len(tr.Phases) {
			t.Fatalf("re-encode changed shape: %d/%d ops, %d/%d phases",
				tr.TotalOps(), tr2.TotalOps(), len(tr.Phases), len(tr2.Phases))
		}
		for pi, p := range tr.Phases {
			q := tr2.Phases[pi]
			for i := range p.Ops {
				if p.Ops[i] != q.Ops[i] || p.Gaps[i] != q.Gaps[i] {
					t.Fatalf("phase %d op %d changed across re-encode", pi, i)
				}
			}
		}
	})
}

// TestTraceScanLimitFitsWire: the netdriver frame carries a scan limit in 32
// bits, so the writer refuses a limit outside [1, MaxScanLimit] at Close, and
// the reader takes a block from elsewhere that holds one as corrupt, where it
// used to decode it (a uvarint ≥ 2^63 into a negative int).
func TestTraceScanLimitFitsWire(t *testing.T) {
	for _, lim := range []uint64{0, 1 << 32, 1 << 63, MaxScanLimit} {
		valid := lim == MaxScanLimit
		w := NewTraceWriter(new(bytes.Buffer), "lim", 1)
		w.Append([]Op{{Type: Scan, Key: 2, ScanLimit: int(lim)}}, nil)
		if err := w.Close(); (err == nil) != valid {
			t.Fatalf("writing limit %d: err = %v", lim, err)
		}

		// One Scan of key 2 with gap 0, as flushOps lays it out.
		var buf bytes.Buffer
		w = NewTraceWriter(&buf, "lim", 1)
		p := []byte{1, byte(Scan), 1, byte(zigzag(2)), 0}
		w.writeBlock(blockOps, binary.AppendUvarint(p, lim))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Truncated == valid || (tr.TotalOps() == 1) != valid {
			t.Fatalf("reading limit %d: truncated %v with %d ops decoded", lim, tr.Truncated, tr.TotalOps())
		}
		if valid && tr.Phases[0].Ops[0] != (Op{Type: Scan, Key: 2, ScanLimit: MaxScanLimit}) {
			t.Fatalf("limit %d decoded as %+v", lim, tr.Phases[0].Ops[0])
		}
	}
}
