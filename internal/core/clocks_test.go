package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/netdriver"
	"repro/internal/sim"
	"repro/internal/workload"
)

// twoPhase is a pinned two-phase scenario that uses everything a run can
// ask of its executor: an offline training window, a retrain window between
// the phases, an arrival process, puts and scans.
func twoPhase() core.Scenario {
	return core.Scenario{
		Name: "two-clocks", Seed: 9, TrainBefore: true,
		InitialData: distgen.NewUniform(1, 0, 1<<20), InitialSize: 3000,
		Phases: []core.Phase{
			{Name: "reads", Ops: 1500,
				Source: workload.FromSpec(workload.Spec{Mix: workload.Balanced, Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<20)}}, workload.NewPoisson(4, 300_000))},
			{Name: "scans", Ops: 1000, RetrainBefore: true,
				Source: workload.FromSpec(workload.Spec{Mix: workload.ScanHeavy, Access: distgen.Static{G: distgen.NewUniform(3, 0, 1<<20)}}, nil)},
		},
	}.Materialize()
}

// slowLoad is a SUT whose Load takes 50 ms longer than it should.
type slowLoad struct{ core.SUT }

func (s slowLoad) Load(keys, values []uint64) {
	time.Sleep(50 * time.Millisecond)
	s.SUT.Load(keys, values)
}

// TestRunOnBothClocks: RunOn is the same experiment on either clock. One
// pinned scenario run on the virtual and on the wall clock, in process and
// over a loopback netdriver pair, at Batch 1 and 7, does the same things —
// the same ops complete, find and miss, phase by phase, with the same
// training windows and the same work, training included, as the in-process
// virtual run — and only the times differ: priced on one clock, measured on
// the other.
func TestRunOnBothClocks(t *testing.T) {
	s := twoPhase()
	ref, err := core.NewRunner().Run(s, core.NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	if ref.OfflineTrainWork == 0 || ref.Models == 0 || ref.OnlineTrainWork == 0 {
		t.Fatalf("the scenario trains nothing: train work %d, %d models, online work %d", ref.OfflineTrainWork, ref.Models, ref.OnlineTrainWork)
	}
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewRMISUT)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) // waits for its connections, so it must run after the clients' cleanups
	remote := func() core.SUT {
		c, err := netdriver.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	for _, batch := range []int{1, 7} {
		for i, sut := range []func() core.SUT{core.NewRMISUT, remote} {
			where := []string{"in process", "over the wire"}[i]
			t.Run(fmt.Sprintf("%s, batch %d", where, batch), func(t *testing.T) {
				r := core.NewRunner()
				r.Batch = batch
				virt, err := r.RunOn(&sim.Virtual{}, s, sut())
				if err != nil {
					t.Fatal(err)
				}
				wall, err := r.RunOn(sim.NewReal(), s, sut())
				if err != nil {
					t.Fatal(err)
				}
				if virt.Completed != 2500 || wall.Completed != 2500 || virt.Outcomes.Found == 0 || virt.Outcomes.NotFound == 0 ||
					wall.Outcomes.Found != virt.Outcomes.Found || wall.Outcomes.NotFound != virt.Outcomes.NotFound {
					t.Fatalf("outcomes diverge: wall %d ops %+v, virtual %d ops %+v", wall.Completed, wall.Outcomes, virt.Completed, virt.Outcomes)
				}
				for _, got := range []*core.Result{virt, wall} {
					if got.Outcomes.WorkUnits != ref.Outcomes.WorkUnits || got.Retrains != 1 || got.OfflineTrainWork != ref.OfflineTrainWork ||
						got.Models != ref.Models || got.OnlineTrainWork != ref.OnlineTrainWork {
						t.Fatalf("work diverges from the in-process virtual run: %+v, %d retrains, train work %d, %d models, online work %d; want %+v, 1, %d, %d, %d",
							got.Outcomes, got.Retrains, got.OfflineTrainWork, got.Models, got.OnlineTrainWork,
							ref.Outcomes, ref.OfflineTrainWork, ref.Models, ref.OnlineTrainWork)
					}
				}
				if wall.Retrains != virt.Retrains || len(wall.PhaseStarts) != 2 || len(virt.PhaseStarts) != 2 || len(wall.PostChangeLatencies) != 1 {
					t.Fatalf("phase structure diverges: wall %d retrains, starts %v; virtual %d retrains, starts %v",
						wall.Retrains, wall.PhaseStarts, virt.Retrains, virt.PhaseStarts)
				}
				var lastDone int64
				wall.Cumulative.Points(func(tm, _ int64) { lastDone = max(lastDone, tm) })
				for i, p := range wall.Phases {
					if p.Completed != virt.Phases[i].Completed || p.StartNs != wall.PhaseStarts[i] || p.EndNs <= p.StartNs {
						t.Fatalf("phase %d: wall %+v, virtual completed %d", i, p, virt.Phases[i].Completed)
					}
				}
				if wall.Phases[1].StartNs < wall.Phases[0].EndNs || lastDone > wall.DurationNs || wall.Latency.Quantile(0.5) <= 0 {
					t.Fatalf("wall times out of order: phases %+v, last completion %d, duration %d", wall.Phases, lastDone, wall.DurationNs)
				}
			})
		}
	}

	// Every time in a wall-clock result counts from the end of the initial
	// load: a slow Load moves neither the first phase's start nor the
	// duration.
	began := time.Now()
	res, err := core.NewRunner().RunOn(sim.NewReal(), s, slowLoad{core.NewBTreeSUT()})
	total := time.Since(began).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	const load = int64(50 * time.Millisecond)
	if res.PhaseStarts[0] >= load || total-res.DurationNs < load {
		t.Fatalf("a 50 ms load leaked into the result: first phase starts at %d ns, run took %d ns of which %d are reported", res.PhaseStarts[0], total, res.DurationNs)
	}
}
