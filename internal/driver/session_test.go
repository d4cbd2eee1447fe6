package driver

import (
	"bytes"
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

// sessionTrace runs the driver with session-paced per-worker sources,
// recording the issued streams, and returns the trace bytes.
func sessionTrace(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := workload.NewTraceWriter(&buf, "driver-sessions", seed)
	_, err := Run(core.NewBTreeSUT(), workload.Spec{},
		distgen.NewUniform(seed+1, 0, 1<<40), 2000,
		Options{Workers: 4, Ops: 8000, Seed: seed,
			Sources: sessionSources(seed), TraceSink: tw})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunSessionSourcesDeterministic drives session-arrival workloads
// through the multi-worker driver twice with one seed: each worker's issued
// op/gap stream is deterministic and the recorded trace (one phase per
// worker, written in worker order) is byte-identical.
func TestRunSessionSourcesDeterministic(t *testing.T) {
	a := sessionTrace(t, 77)
	b := sessionTrace(t, 77)
	if !bytes.Equal(a, b) {
		t.Fatalf("session trace not reproducible: %d vs %d bytes differ", len(a), len(b))
	}
	if c := sessionTrace(t, 78); bytes.Equal(a, c) {
		t.Fatal("different seeds recorded identical traces")
	}

	// The recorded per-worker streams must carry the session structure:
	// think gaps >= ThinkNs and intra gaps below it, in 2..6-op bursts.
	tr, err := workload.ReadTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) != 4 {
		t.Fatalf("trace has %d phases, want one per worker (4)", len(tr.Phases))
	}
	for _, ph := range tr.Phases {
		if len(ph.Gaps) == 0 || ph.Gaps[0] < 1_000_000 {
			t.Fatalf("worker phase %q does not open with a think gap", ph.Name)
		}
	}
}
