package lsbench_test

// Record → replay byte-identity. A recording is the materialized scenario
// written down before any SUT runs (Scenario.Trace + Trace.WriteFile);
// replayed through per-phase trace sources (Phase.Source =
// Trace.PhaseReader(i)) it must reproduce a live run's result JSON
// byte-for-byte, retrain windows included. This is the contract that makes
// recorded traces a portable substitute for the generator configuration
// that produced them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/report"
	"repro/internal/workload"
)

// sourcePhaseScenario is the second pinned recording: a stateful arrival
// process (diurnal) on a spec phase, then a phase fed by an explicit Source
// with a stateful arrival of its own.
func sourcePhaseScenario() core.Scenario {
	return core.Scenario{
		Name: "trace-pin", Seed: 7,
		InitialData: distgen.NewUniform(1, 0, 1<<30), InitialSize: 2000,
		Phases: []core.Phase{
			{Name: "diurnal", Ops: 5000, Arrival: workload.NewDiurnal(3, 500_000, 0.4, 1),
				Workload: workload.Spec{Mix: workload.Balanced, Access: distgen.Static{G: distgen.NewZipfKeys(2, 1.1, 1<<20)}}},
			{Name: "source", Ops: 3000, Source: workload.NewSource(
				workload.Spec{Mix: workload.ScanHeavy, Access: distgen.Static{G: distgen.NewUniform(4, 0, 1<<30)}},
				workload.NewPoisson(5, 200_000), 0)},
		},
	}
}

// record pins the scenario and writes its recording, returning the pinned
// scenario (what the SUTs then run) and the recorded bytes.
func record(t *testing.T, s core.Scenario) (core.Scenario, []byte) {
	t.Helper()
	s = s.Materialize()
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.lstrace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, data
}

// TestRecordedBytesPinned pins the recorded bytes of two scenarios by
// SHA-256, so a change to the file format or to any recorded op or gap
// stream shows here.
func TestRecordedBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		mk   func() core.Scenario
		want string
	}{
		{batchGoldenScenario, "4ac13cac993dbd122efeacc17120b1bb4a25c107c65406f10e8ffce0745b6b3d"},
		{sourcePhaseScenario, "26860e7b19f7bc034a30de1132a073a45edf4471e2492e64b2c0400e4787ffbc"},
	} {
		s, data := record(t, tc.mk())
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: recorded bytes hash to %s, want %s", s.Name, got, tc.want)
		}
	}
}

func TestTraceReplayByteIdentity(t *testing.T) {
	// Pin the initial database once so the live and replayed runs load
	// identical data (generators are stateful).
	keys := distgen.UniqueKeys(distgen.NewZipfKeys(43, 1.1, 1<<22), 10000)

	for _, sf := range []struct {
		name string
		mk   func() core.SUT
	}{
		{"btree", core.NewBTreeSUT},
		{"rmi", core.NewRMISUT},
	} {
		sf := sf
		t.Run(sf.name, func(t *testing.T) {
			// The reference is a live run, nothing pinned but the keys,
			// with a retrain window before its second phase.
			s := batchGoldenScenario()
			s.InitialKeys = keys
			s.Phases[1].RetrainBefore = true
			base, err := core.NewRunner().Run(s, sf.mk())
			if err != nil {
				t.Fatal(err)
			}
			golden, err := report.MarshalResult(base)
			if err != nil {
				t.Fatal(err)
			}

			// The recording comes from a fresh copy of the scenario and
			// from no run at all.
			_, data := record(t, batchGoldenScenario())
			tr, err := workload.ReadTrace(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Truncated || len(tr.Phases) != len(s.Phases) || tr.TotalOps() != 8000 {
				t.Fatalf("recording: truncated=%v phases=%d ops=%d", tr.Truncated, len(tr.Phases), tr.TotalOps())
			}

			// The replay keeps the scenario's phases and retrain windows
			// but carries no workload spec or arrival process at all:
			// each phase reads its recorded stream.
			replay := core.Scenario{
				Name:        s.Name,
				Seed:        s.Seed,
				InitialKeys: keys,
				TrainBefore: s.TrainBefore,
				IntervalNs:  s.IntervalNs,
			}
			for i, p := range s.Phases {
				replay.Phases = append(replay.Phases, core.Phase{
					Name: p.Name, Ops: p.Ops, RetrainBefore: p.RetrainBefore, Source: tr.PhaseReader(i),
				})
			}

			for _, batch := range []int{0, 64} {
				r := core.NewRunner()
				r.Batch = batch
				res, err := r.Run(replay, sf.mk())
				if err != nil {
					t.Fatal(err)
				}
				got, err := report.MarshalResult(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, golden) {
					t.Fatalf("batch=%d: replayed result JSON diverges from the live run\n--- replay ---\n%s\n--- live ---\n%s",
						batch, got, golden)
				}
			}
		})
	}
}

// TestRecordUnderParallelRunAll: with the write ahead of the runs, a
// recording and a parallel head-to-head are one scenario value — nothing is
// teed off a running SUT, so there is no writer for workers to share. The
// trace and every result equal the serial run's.
func TestRecordUnderParallelRunAll(t *testing.T) {
	factories := []func() core.SUT{core.NewBTreeSUT, core.NewRMISUT, core.NewALEXSUT}
	run := func(parallel int) ([]byte, [][]byte) {
		s, data := record(t, sourcePhaseScenario())
		r := core.NewRunner()
		r.Parallel = parallel
		results, err := r.RunAll(s, factories)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, res := range results {
			j, err := report.MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, j)
		}
		return data, out
	}
	serialTrace, serial := run(1)
	parTrace, par := run(3)
	if !bytes.Equal(serialTrace, parTrace) {
		t.Fatal("recording differs between the serial and the parallel head-to-head")
	}
	for i := range serial {
		if !bytes.Equal(serial[i], par[i]) {
			t.Fatalf("SUT %d: parallel result diverges from serial\n--- parallel ---\n%s\n--- serial ---\n%s", i, par[i], serial[i])
		}
	}
}
