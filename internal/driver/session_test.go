package driver

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/workload"
)

// sessionSources gives each driver worker its own session-paced source
// seeded from the run seed — the per-worker analogue of the virtual
// runner's per-phase seeding, so the recorded streams are a pure function
// of (seed, worker id).
func sessionSources(seed uint64) func(worker int) workload.Source {
	return func(worker int) workload.Source {
		ws := workload.PhaseSeed(seed, worker)
		spec := workload.Spec{
			Mix:    workload.Balanced,
			Access: distgen.Static{G: distgen.NewUniform(ws+100, 0, 1<<40)},
		}
		return workload.NewSource(spec,
			workload.NewSessionArrival(ws+200, 1_000_000, 20_000, 2, 6), ws)
	}
}

// recorded is a Source that keeps what it served.
type recorded struct {
	workload.Source
	ops  []workload.Op
	gaps []int64
}

func (r *recorded) Fill(ops []workload.Op, gaps []int64, pos, total int) int {
	n := r.Source.Fill(ops, gaps, pos, total)
	r.ops, r.gaps = append(r.ops, ops[:n]...), append(r.gaps, gaps[:n]...)
	return n
}

// sessionStreams runs the driver with session-paced per-worker sources and
// returns what each worker's source served.
func sessionStreams(t *testing.T, seed uint64) []*recorded {
	t.Helper()
	streams := make([]*recorded, 4)
	sources := sessionSources(seed)
	_, err := Run(core.NewBTreeSUT(), workload.Spec{},
		distgen.NewUniform(seed+1, 0, 1<<40), 2000,
		Options{Workers: 4, Ops: 8000, Seed: seed,
			Sources: func(w int) workload.Source {
				streams[w] = &recorded{Source: sources(w)}
				return streams[w]
			}})
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// TestRunSessionSourcesDeterministic drives session-arrival workloads
// through the multi-worker driver twice with one seed: each worker's issued
// op/gap stream is deterministic.
func TestRunSessionSourcesDeterministic(t *testing.T) {
	a := sessionStreams(t, 77)
	for w, b := range sessionStreams(t, 77) {
		if !reflect.DeepEqual(a[w].ops, b.ops) || !reflect.DeepEqual(a[w].gaps, b.gaps) {
			t.Fatalf("worker %d: session stream not reproducible", w)
		}
	}
	if c := sessionStreams(t, 78); reflect.DeepEqual(a[0].ops, c[0].ops) {
		t.Fatal("different seeds issued identical streams")
	}

	// The per-worker streams must carry the session structure: each is its
	// worker's whole share and opens with a think gap >= ThinkNs.
	for w, s := range a {
		if len(s.ops) != 2000 || s.gaps[0] < 1_000_000 {
			t.Fatalf("worker %d issued %d ops, first gap %d: want 2000 opening with a think gap", w, len(s.ops), s.gaps[0])
		}
	}
}
