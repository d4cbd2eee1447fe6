package lsbench_test

// Batch-size invariance: the runner's op-dispatch batch size is a pure
// execution-strategy knob. Virtual-clock results must be byte-identical at
// any batch size, unless a fault window opens or closes mid-run (the
// injector reads the clock once per batch). These goldens pin that
// contract.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/pager"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// batchGoldenScenario is a two-phase scenario with a distribution shift,
// an open-loop arrival process, and pre-training: it exercises every part
// of the pipeline the batch path touches (deferred SLA calibration, phase
// stats, post-change latencies, outcome tallies).
func batchGoldenScenario() core.Scenario {
	return core.Scenario{
		Name:        "batch-invariance",
		Seed:        42,
		InitialData: distgen.NewZipfKeys(43, 1.1, 1<<22),
		InitialSize: 10000,
		TrainBefore: true,
		IntervalNs:  200_000,
		Phases: []core.Phase{
			{
				Name: "steady",
				Ops:  4000,
				Workload: workload.Spec{
					Mix:    workload.ReadHeavy,
					Access: distgen.Static{G: distgen.NewZipfKeys(44, 1.1, 1<<22)},
				},
			},
			{
				Name: "shift",
				Ops:  4000,
				Workload: workload.Spec{
					Mix:    workload.Mix{GetFrac: 0.3, PutFrac: 0.55, DeleteFrac: 0.05, ScanFrac: 0.1, ScanLimit: 20},
					Access: distgen.Static{G: distgen.NewClustered(45, 25, float64(distgen.KeyDomain)/1e6)},
				},
				Arrival: workload.NewDiurnal(46, 600_000, 0.5, 2),
			},
		},
	}
}

// batchSessionFaultScenario is the golden scenario with phase 0 paced as
// interactive sessions and segmented by the runner, so a batch holds
// session boundaries.
func batchSessionFaultScenario() core.Scenario {
	s := batchGoldenScenario()
	arrival := workload.NewSessionArrival(47, 400_000, 20_000, 3, 9)
	s.Phases[0].Arrival = arrival
	s.Session = arrival.Spec(1_000_000)
	return s
}

// TestBatchSizeInvariance runs the golden scenario against every SUT at
// several batch sizes and asserts the marshalled result JSON is
// byte-for-byte identical to the unbatched (per-op) run. The disk SUTs run
// under a 16-page pool, a small fraction of the 10k-key data: there a
// lookup evicts a page, so a batch path that reordered lookups would read
// different pages and price different virtual times. The sessions+errors
// row puts session boundaries and failed ops inside batches: an error
// window open for the whole run fails a seeded fifth of the ops whatever
// the clock reads, so its failures are batch-invariant too.
func TestBatchSizeInvariance(t *testing.T) {
	smallPool := pager.PoolKnobs{Pages: 16, Policy: "lru"}
	errors, err := fault.ParseSpec("error@0s-1h:rate=0.2", 29)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		sut      func() core.SUT
		scenario func() core.Scenario
		wrap     func(core.SUT, sim.Clock) core.SUT
	}
	golden := func(f func() core.SUT) row { return row{sut: f, scenario: batchGoldenScenario} }
	rows := map[string]row{
		"btree":      golden(core.NewBTreeSUT),
		"hash":       golden(core.NewHashSUT),
		"rmi":        golden(core.NewRMISUT),
		"alex":       golden(core.NewALEXSUT),
		"kvstore":    golden(core.NewKVSUTDefault),
		"disk-btree": golden(func() core.SUT { return core.NewDiskBTreeSUT(smallPool) }),
		"disk-lsm":   golden(func() core.SUT { return core.NewDiskKVSUT(kv.DefaultKnobs(), smallPool) }),
		"rmi/sessions+errors": {sut: core.NewRMISUT, scenario: batchSessionFaultScenario,
			wrap: func(s core.SUT, clock sim.Clock) core.SUT { return fault.Wrap(s, fault.NewInjector(errors, clock)) }},
	}
	batches := []int{2, 7, 64, 1000}
	for name, rw := range rows {
		rw := rw
		t.Run(name, func(t *testing.T) {
			// Scenarios hold stateful generators: build a fresh one per run.
			run := func(batch int) *core.Result {
				r := core.NewRunner()
				r.Batch = batch
				r.WrapSUT = rw.wrap
				res, err := r.Run(rw.scenario(), rw.sut())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := run(1)
			golden, err := report.MarshalResult(base)
			if err != nil {
				t.Fatal(err)
			}
			if base.Outcomes.Found == 0 || base.Outcomes.WorkUnits == 0 {
				t.Fatalf("golden run has empty outcomes: %+v", base.Outcomes)
			}
			if rw.wrap != nil && (base.Failed == 0 || base.Snapshot.Sessions == nil) {
				t.Fatalf("golden run has %d failures and sessions %v: the row tests nothing", base.Failed, base.Snapshot.Sessions)
			}
			for _, b := range batches {
				res := run(b)
				got, err := report.MarshalResult(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, golden) {
					t.Fatalf("batch=%d: result JSON diverges from per-op dispatch\n--- batch ---\n%s\n--- per-op ---\n%s",
						b, got, golden)
				}
				if res.Outcomes != base.Outcomes {
					t.Fatalf("batch=%d: outcomes %+v, want %+v", b, res.Outcomes, base.Outcomes)
				}
			}
		})
	}
}

// TestKVGoldens pins both run stores of the one LSM engine on the golden
// scenario, under knobs small enough that it flushes 25 times and compacts
// 8: total work, virtual duration and the final store counters (and, on
// disk, what the 16-page pool saw). Work and counters were read off the
// commit before the two stores were folded into one engine, where kvstore
// had no pinned number at all; every counter but RunProbes is the same in both
// rows because the engine, not the run store, keeps them.
func TestKVGoldens(t *testing.T) {
	knobs := kv.Knobs{MemtableCap: 512, MaxRuns: 3, SparseEvery: 64, BloomBitsPerKey: 8}
	engine := kv.Counters{Gets: 4959, Puts: 12460, Deletes: 199, Flushes: 25, Compactions: 8,
		CompactedBytes: 58756, BloomNegatives: 6027, MemtableHits: 1180, RunsSearchedSum: 7701}
	for _, tc := range []struct {
		sut        *core.KVSUT
		workUnits  int64
		durationNs int64
		runProbes  uint64
		pool       pager.Counters
	}{
		{core.NewKVSUT(knobs), 162910, 8964774, 100880, pager.Counters{}},
		{core.NewDiskKVSUT(knobs, pager.PoolKnobs{Pages: 16, Policy: "lru"}), 2834081, 25994256, 10801,
			pager.Counters{Hits: 1451, Misses: 1313, Evictions: 1679, DirtyWritebacks: 382, Fsyncs: 12, PagesRead: 1313, PagesWritten: 388}},
	} {
		t.Run(tc.sut.Name(), func(t *testing.T) {
			res, err := core.NewRunner().Run(batchGoldenScenario(), tc.sut)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcomes.WorkUnits != tc.workUnits || res.DurationNs != tc.durationNs {
				t.Errorf("work %d over %d ns, want %d over %d ns", res.Outcomes.WorkUnits, res.DurationNs, tc.workUnits, tc.durationNs)
			}
			want := engine
			want.RunProbes = tc.runProbes
			if got := tc.sut.Store().Counters(); got != want {
				t.Errorf("store counters %+v, want %+v", got, want)
			}
			var pool pager.Counters
			if p := tc.sut.Pool(); p != nil {
				pool = p.Counters()
			}
			if pool != tc.pool {
				t.Errorf("pool counters %+v, want %+v", pool, tc.pool)
			}
		})
	}
}
