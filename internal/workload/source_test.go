package workload

import (
	"testing"

	"repro/internal/distgen"
)

func mixedSpec(seed uint64) Spec {
	return Spec{
		Name:   "mixed",
		Mix:    Mix{GetFrac: 0.6, PutFrac: 0.25, DeleteFrac: 0.05, ScanFrac: 0.1, ScanLimit: 50},
		Access: distgen.Static{G: distgen.NewZipfKeys(seed, 1.1, 1<<20)},
	}
}

// TestPhaseSeed pins the seed-derivation formula every layer shares.
func TestPhaseSeed(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		i    int
		want uint64
	}{
		{0, 0, 1},
		{42, 0, 43},
		{42, 1, 42 + 7919 + 1},
		{7, 3, 7 + 3*7919 + 1},
	} {
		if got := PhaseSeed(tc.seed, tc.i); got != tc.want {
			t.Errorf("PhaseSeed(%d,%d) = %d, want %d", tc.seed, tc.i, got, tc.want)
		}
	}
}

// TestGeneratorSourceMatchesInlineStream asserts the Source seam is
// behavior-preserving: Fill draws the byte-identical stream the pre-Source
// layers drew inline (per op: Generator.Next then Arrival.NextGap), at any
// batch size.
func TestGeneratorSourceMatchesInlineStream(t *testing.T) {
	const total = 5000
	// Reference: the inline loop the runner used to run.
	gen := NewGenerator(mixedSpec(9), 77)
	arr := NewDiurnal(5, 500_000, 0.5, 2)
	wantOps := make([]Op, total)
	wantGaps := make([]int64, total)
	for i := 0; i < total; i++ {
		p := float64(i) / float64(total)
		wantOps[i] = gen.Next(p)
		wantGaps[i] = arr.NextGap(p)
	}

	for _, batch := range []int{1, 7, 64, 1000, total} {
		src := NewSource(mixedSpec(9), NewDiurnal(5, 500_000, 0.5, 2), 77)
		ops := make([]Op, batch)
		gaps := make([]int64, batch)
		for i := 0; i < total; i += batch {
			bn := batch
			if rest := total - i; bn > rest {
				bn = rest
			}
			if n := src.Fill(ops[:bn], gaps[:bn], i, total); n != bn {
				t.Fatalf("batch %d: Fill returned %d, want %d", batch, n, bn)
			}
			for j := 0; j < bn; j++ {
				if ops[j] != wantOps[i+j] || gaps[j] != wantGaps[i+j] {
					t.Fatalf("batch %d: op %d = %+v/%d, want %+v/%d",
						batch, i+j, ops[j], gaps[j], wantOps[i+j], wantGaps[i+j])
				}
			}
		}
	}
}

// TestTraceReaderBounded checks position addressing and end-of-stream.
func TestTraceReaderBounded(t *testing.T) {
	ops := []Op{{Type: Get, Key: 1}, {Type: Put, Key: 2, Value: 3}, {Type: Get, Key: 9}}
	gaps := []int64{0, 10, 20}
	tr := NewTraceReader("t", ops, gaps)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	bo := make([]Op, 2)
	bg := make([]int64, 2)
	if n := tr.Fill(bo, bg, 0, 3); n != 2 || bo[0] != ops[0] || bg[1] != 10 {
		t.Fatalf("Fill(0) = %d %v %v", n, bo, bg)
	}
	if n := tr.Fill(bo, bg, 2, 3); n != 1 || bo[0] != ops[2] || bg[0] != 20 {
		t.Fatalf("Fill(2) = %d %v %v", n, bo, bg)
	}
	if n := tr.Fill(bo, bg, 3, 3); n != 0 {
		t.Fatalf("Fill past end = %d", n)
	}
	// Nil gaps replay as closed loop.
	bg[0], bg[1] = 99, 99
	if n := NewTraceReader("t", ops, nil).Fill(bo, bg, 0, 3); n != 2 || bg[0] != 0 || bg[1] != 0 {
		t.Fatalf("nil-gap Fill = %d %v", n, bg)
	}
}
