package driver

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// roundLog is a BatchSUT that logs every dispatch it is handed — the ops of
// each DoBatch, and into calls (shared with callLog) that the call happened.
// Round slow sleeps, so its ops stand out by latency.
type roundLog struct {
	core.SUT
	rounds [][]workload.Op
	calls  *[]string
	slow   int
}

func newRoundLog() *roundLog { return &roundLog{SUT: core.NewBTreeSUT(), slow: -1} }

func (r *roundLog) DoBatch(ops []workload.Op, out []core.OpResult) {
	if len(r.rounds) == r.slow {
		time.Sleep(30 * time.Millisecond)
	}
	r.rounds = append(r.rounds, slices.Clone(ops))
	if r.calls != nil {
		*r.calls = append(*r.calls, fmt.Sprintf("dobatch(%d)", len(ops)))
	}
	for i, op := range ops {
		out[i] = r.Do(op)
	}
}

// callLog is a Source that logs every Fill it serves into calls.
type callLog struct {
	workload.Source
	calls *[]string
}

func (c callLog) Fill(ops []workload.Op, gaps []int64, pos, total int) int {
	n := c.Source.Fill(ops, gaps, pos, total)
	*c.calls = append(*c.calls, fmt.Sprintf("fill(%d,%d,%d)=%d", len(ops), pos, total, n))
	return n
}

// stream is n gets whose keys name their worker and position.
func stream(w, n int) []workload.Op {
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = workload.Op{Type: workload.Get, Key: uint64(w*100 + i)}
	}
	return ops
}

func keys(rounds [][]workload.Op) [][]uint64 {
	out := make([][]uint64, len(rounds))
	for i, r := range rounds {
		for _, op := range r {
			out[i] = append(out[i], op.Key)
		}
	}
	return out
}

// interleave is the round rule written down: in worker order, each stream
// with ops left gives its next batch of them.
func interleave(streams [][]workload.Op, batch int) [][]workload.Op {
	var rounds [][]workload.Op
	for pos := 0; ; pos += batch {
		var round []workload.Op
		for _, s := range streams {
			if pos < len(s) {
				round = append(round, s[pos:min(pos+batch, len(s))]...)
			}
		}
		if round == nil {
			return rounds
		}
		rounds = append(rounds, round)
	}
}

// TestRunRoundOrder pins the round: which ops every dispatch carries, in
// which order, and what the ops of one dispatch report.
func TestRunRoundOrder(t *testing.T) {
	// Uneven shares (6, 6, 5) and a source that drains early, mid-batch:
	// worker 1 holds 3 ops of its 6. The run fails as any run over a short
	// phase source does, and the round that came up short is not dispatched.
	t.Run("bounded source", func(t *testing.T) {
		sut := newRoundLog()
		_, err := Run(sut, workload.Spec{}, nil, 0, Options{Workers: 3, Batch: 2, Ops: 17,
			Sources: func(w int) workload.Source {
				return workload.NewTraceReader("w", stream(w, []int{6, 3, 5}[w]), nil)
			}})
		if err == nil || !strings.Contains(err.Error(), "exhausted at op 11 of 17") {
			t.Fatalf("err = %v, want the runner's exhausted-source error", err)
		}
		if got, want := keys(sut.rounds), [][]uint64{{0, 1, 100, 101, 200, 201}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("rounds = %v, want only the full first round %v", got, want)
		}
	})

	// The spec path: the rounds are the interleave of the pinned per-worker
	// streams, and a second run of the seed issues the same ops in the same
	// order.
	t.Run("spec streams", func(t *testing.T) {
		opts := Options{Workers: 3, Batch: 2, Ops: 17, Seed: 26}
		rounds := issued(t, blendSpec(), opts)
		if want := interleave(shares(blendSpec(), opts.Seed, 6, 6, 5), 2); !reflect.DeepEqual(rounds, want) {
			t.Fatalf("rounds are not the interleave of the workers' streams:\n got %v\nwant %v", rounds, want)
		}
		if again := issued(t, blendSpec(), opts); !reflect.DeepEqual(rounds, again) {
			t.Fatal("two runs of one seed issued different op sequences")
		}
	})

	// One worker: the Fill and DoBatch calls are those of the plain loop over
	// one stream, call for call. A source that drains mid-batch (5 ops) or
	// exactly on a batch boundary (6) fails the run at the short Fill, before
	// any partial round is dispatched.
	t.Run("one worker", func(t *testing.T) {
		for _, held := range []int{7, 5, 6} {
			var got, want []string
			sut := newRoundLog()
			sut.calls = &got
			_, err := Run(sut, workload.Spec{}, nil, 0, Options{Workers: 1, Batch: 3, Ops: 7,
				Sources: func(int) workload.Source {
					return callLog{workload.NewTraceReader("w", stream(0, held), nil), &got}
				}})
			if exhausted := err != nil && strings.Contains(err.Error(), fmt.Sprintf("exhausted at op %d of 7", held)); exhausted != (held < 7) {
				t.Fatalf("source of %d ops: err = %v", held, err)
			}

			ref := newRoundLog()
			ref.calls = &want
			src := callLog{workload.NewTraceReader("w", stream(0, held), nil), &want}
			ops, gaps, res := make([]workload.Op, 3), make([]int64, 3), make([]core.OpResult, 3)
			for i, n := 0, 7; i < n; i += 3 {
				bn := min(3, n-i)
				if src.Fill(ops[:bn], gaps[:bn], i, n) < bn {
					break
				}
				ref.DoBatch(ops[:bn], res[:bn])
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("source of %d ops: calls %v, want %v", held, got, want)
			}
		}
	})

	// The round is the unit of service: its ops share one completion time
	// and one latency. Round 1 of three is slow; exactly its ops violate the
	// SLA, and the curve steps once per round.
	t.Run("shared timestamps", func(t *testing.T) {
		sut := newRoundLog()
		sut.slow = 1
		res, err := Run(sut, workload.Spec{}, nil, 0, Options{Workers: 3, Batch: 2, Ops: 17,
			SLANs: (10 * time.Millisecond).Nanoseconds(),
			Sources: func(w int) workload.Source {
				return workload.NewTraceReader("w", stream(w, 6), nil)
			}})
		if err != nil {
			t.Fatal(err)
		}
		var times []int64
		res.Cumulative.Points(func(tm, _ int64) { times = append(times, tm) })
		if len(times) != 17 {
			t.Fatalf("%d completions, want 17", len(times))
		}
		i := 0
		for r, round := range sut.rounds {
			for j := range round {
				if times[i+j] != times[i] {
					t.Fatalf("round %d: ops completed at %d and %d", r, times[i], times[i+j])
				}
			}
			i += len(round)
		}
		if i != 17 {
			t.Fatalf("%d ops dispatched, want 17", i)
		}
		var violated int64
		for _, iv := range res.Bands.Intervals() {
			violated += iv.Violated()
		}
		if want := int64(len(sut.rounds[1])); violated != want {
			t.Fatalf("%d ops over the SLA, want the slow round's %d", violated, want)
		}
	})

	// More workers than ops: the idle ones never enter a round.
	t.Run("idle workers", func(t *testing.T) {
		sut := newRoundLog()
		res, err := Run(sut, specFor(1), nil, 0, Options{Workers: 8, Ops: 3, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 3 || len(sut.rounds) != 1 || len(sut.rounds[0]) != 3 {
			t.Fatalf("completed %d ops in rounds %v, want one round of 3", res.Completed, keys(sut.rounds))
		}
	})
}
