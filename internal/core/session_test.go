package core

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// sessionScenario paces a single phase with interactive sessions and asks
// the runner to segment them with the matching spec.
func sessionScenario(ops int) Scenario {
	arrival := workload.NewSessionArrival(21, 2_000_000, 50_000, 3, 9)
	s := quickScenario(ops)
	s.Name = "sessions"
	s.Phases[0].Source = workload.FromSpec(quickSpec(workload.ReadHeavy), arrival)
	s.Session = arrival.Spec(5_000_000)
	return s
}

func TestRunnerSessionStats(t *testing.T) {
	res, err := NewRunner().Run(sessionScenario(6000), NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	ss := res.Snapshot.Sessions
	if ss == nil {
		t.Fatal("session scenario produced no session stats")
	}
	if ss.Sessions < 6000/9 || ss.Sessions > 6000/3+1 {
		t.Fatalf("sessions = %d for 6000 ops of 3..9", ss.Sessions)
	}
	if ss.Makespan.Count() != uint64(ss.Sessions) {
		t.Fatalf("makespan count %d != sessions %d", ss.Makespan.Count(), ss.Sessions)
	}
	if ss.MetBudget > ss.Sessions {
		t.Fatalf("met %d > sessions %d", ss.MetBudget, ss.Sessions)
	}

	// A non-session scenario's snapshot stays free of session stats.
	plain, err := NewRunner().Run(quickScenario(2000), NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Snapshot.Sessions != nil {
		t.Fatal("plain scenario grew session stats")
	}
}

// TestRunnerSessionBatchInvariant checks the per-session digest — like
// every other metric — is byte-identical at any dispatch batch size, and
// survives materialization (segmentation reads the pinned gap stream, not
// the discarded arrival process).
func TestRunnerSessionBatchInvariant(t *testing.T) {
	s := sessionScenario(6000).Materialize()
	r1 := NewRunner()
	a, err := r1.Run(s, NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	r64 := NewRunner()
	r64.Batch = 64
	b, err := r64.Run(s, NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if a.Snapshot.Sessions == nil || b.Snapshot.Sessions == nil {
		t.Fatal("materialized session scenario lost session stats")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across batch sizes: sessions %+v vs %+v",
			a.Snapshot.Sessions, b.Snapshot.Sessions)
	}
}

// TestRunnerSessionTraceReplay records a session run and replays the trace:
// because segmentation is defined on the gap stream, the replayed run
// reproduces the identical session digest without the arrival process.
func TestRunnerSessionTraceReplay(t *testing.T) {
	s := sessionScenario(4000).Materialize()
	orig, err := NewRunner().Run(s, NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	replayed := Scenario{
		Name:        s.Name,
		Seed:        s.Seed,
		InitialKeys: s.InitialKeys,
		TrainBefore: s.TrainBefore,
		IntervalNs:  s.IntervalNs,
		Session:     s.Session,
		Phases: []Phase{{
			Name: s.Phases[0].Name,
			Ops:  s.Phases[0].Ops,
			Source: workload.NewTraceReader(s.Phases[0].Name,
				s.Phases[0].Trace.Ops, s.Phases[0].Trace.Gaps),
		}},
	}
	rep, err := NewRunner().Run(replayed, NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Snapshot.Sessions, rep.Snapshot.Sessions) {
		t.Fatalf("replay session digest differs: %+v vs %+v",
			orig.Snapshot.Sessions, rep.Snapshot.Sessions)
	}
}

func TestScenarioValidateSession(t *testing.T) {
	s := quickScenario(100)
	s.Session = &workload.SessionSpec{GapNs: 0}
	if err := s.Validate(); err == nil {
		t.Fatal("zero boundary gap validated")
	}
}
