package core

import (
	"testing"

	"repro/internal/distgen"
	"repro/internal/stats"
	"repro/internal/workload"
)

// scriptedSUT returns a work sequence fixed in advance, one entry per op in
// issue order, and does nothing else: what the runner makes of it is the
// queue alone.
type scriptedSUT struct {
	work []int64
	n    int
}

func (s *scriptedSUT) Name() string       { return "scripted" }
func (s *scriptedSUT) Load(_, _ []uint64) {}
func (s *scriptedSUT) Do(workload.Op) OpResult {
	s.n++
	return OpResult{Work: s.work[s.n-1]}
}

// TestQueueKnownAnswer checks the virtual clock's single-server FIFO op by op
// against the Lindley recursion done_j = max(arrive_j, done_{j-1}) +
// ServiceTime(work_j), where arrive_j is arrive_{j-1} + gap_j and a zero gap
// is a closed-loop arrival at done_{j-1}. Every completion must land on the
// cumulative curve at exactly its recursion time, at any batch size.
func TestQueueKnownAnswer(t *testing.T) {
	const n = 5000
	rng := stats.NewRNG(29)
	work := make([]int64, n)
	for i := range work {
		work[i] = int64(rng.Intn(200)) // mean service ≈ 0.9 µs at the default prices
	}
	for _, tc := range []struct {
		name    string
		arrival workload.Arrival
	}{
		{"closed", nil},
		{"poisson", workload.NewPoisson(3, 1e6)}, // ρ ≈ 0.9
	} {
		s := Scenario{
			Name:        "queue-" + tc.name,
			Seed:        1,
			InitialKeys: []uint64{1},
			Phases: []Phase{{
				Name:     tc.name,
				Ops:      n,
				Workload: workload.Spec{Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<20)}},
				Arrival:  tc.arrival,
			}},
		}.Materialize()
		r := NewRunner()

		want := make([]int64, n)
		var arrive, done int64
		idle, waited := 0, 0
		for j, g := range s.Phases[0].Trace.Gaps {
			if g == 0 {
				arrive = done // closed loop: the op arrives as the server frees
			} else {
				arrive += g
			}
			if arrive > done {
				idle++
			} else if arrive < done {
				waited++
			}
			done = max(arrive, done) + r.Cost.ServiceTime(work[j])
			want[j] = done
		}
		if tc.arrival != nil && (idle < n/10 || waited < n/10) {
			t.Fatalf("%s: the queue idled before %d ops and queued %d of %d: not a test of both branches", tc.name, idle, waited, n)
		}

		for _, batch := range []int{1, 7, 64} {
			r.Batch = batch
			res, err := r.Run(s, &scriptedSUT{work: work})
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			res.Cumulative.Points(func(at, count int64) {
				if count != int64(len(got))+1 {
					t.Fatalf("%s batch %d: point %d counts %d", tc.name, batch, len(got), count)
				}
				got = append(got, at)
			})
			if len(got) != n {
				t.Fatalf("%s batch %d: %d points, want %d", tc.name, batch, len(got), n)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s batch %d: op %d completes at %d, want %d", tc.name, batch, j, got[j], want[j])
				}
			}
		}
	}
}
