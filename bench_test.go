package lsbench

// This file is the benchmark harness required by DESIGN.md: one testing.B
// target per paper artifact (Figure 1a-1d and the four Lessons), each
// regenerating the corresponding data series and reporting the headline
// numbers as benchmark metrics, plus micro-benchmarks that calibrate the
// virtual-time cost model against real hardware.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benches execute the full experiment once per iteration on
// the deterministic virtual clock, so -benchtime=1x is enough to
// regenerate the series; ReportMetric exposes the paper's single-value
// metrics (area scores, adjustment speed, cost to outperform).

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/driftctl"
	"repro/internal/figures"
	"repro/internal/index/alex"
	"repro/internal/index/btree"
	"repro/internal/index/diskbtree"
	"repro/internal/index/rmi"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/netdriver"
	"repro/internal/pager"
	"repro/internal/quality"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/workload"
)

func benchScale() figures.Scale { return figures.SmallScale() }

// BenchmarkFig1aSpecialization regenerates Figure 1a: throughput box
// statistics per workload/data distribution, sorted by Φ.
func BenchmarkFig1aSpecialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig1a(benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		// Report the learned index's specialization spread (max/min
		// median across distributions) vs. the traditional baseline's.
		spread := func(sut string) float64 {
			lo, hi := 0.0, 0.0
			for i, r := range res.Rows[sut] {
				m := r.Summary.Median
				if i == 0 || m < lo {
					lo = m
				}
				if i == 0 || m > hi {
					hi = m
				}
			}
			if lo == 0 {
				return 0
			}
			return hi / lo
		}
		b.ReportMetric(spread("rmi"), "rmi-spread")
		b.ReportMetric(spread("btree"), "btree-spread")
	}
}

// BenchmarkFig1aWorkloadSimilarity regenerates the workload-similarity
// variant of Figure 1a: Φ = Jaccard distance over plan subtrees (§V-D1).
func BenchmarkFig1aWorkloadSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig1aWorkload(benchScale(), 51)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Phi["extra-filter"], "phi-extra-filter")
		b.ReportMetric(res.Phi["three-way"], "phi-three-way")
		b.ReportMetric(res.Phi["disjoint-scan"], "phi-disjoint")
	}
}

// BenchmarkFig1bCumulative regenerates Figure 1b: cumulative queries over
// time with the area-vs-ideal and two-system area-difference scores.
func BenchmarkFig1bCumulative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig1b(benchScale(), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AreaVsIdeal["rmi"], "rmi-area-vs-ideal")
		b.ReportMetric(res.AreaVsIdeal["btree"], "btree-area-vs-ideal")
		b.ReportMetric(res.AreaBetween, "area-between")
	}
}

// BenchmarkFig1cSLABands regenerates Figure 1c: SLA latency bands and the
// adjustment-speed single-value metric after a distribution change.
func BenchmarkFig1cSLABands(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig1c(benchScale(), 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AdjustmentSpeed["rmi"])/1e6, "rmi-adjust-ms")
		b.ReportMetric(float64(res.AdjustmentSpeed["alex"])/1e6, "alex-adjust-ms")
		b.ReportMetric(float64(res.AdjustmentSpeed["btree"])/1e6, "btree-adjust-ms")
		b.ReportMetric(res.ViolationRate["rmi"]*100, "rmi-viol-pct")
	}
}

// BenchmarkFig1dCostCurve regenerates Figure 1d: throughput per training
// cost vs. the DBA step function, with the training-cost-to-outperform
// headline metric.
func BenchmarkFig1dCostCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig1d(benchScale(), 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostToOutperformCPU, "outperform-$cpu")
		b.ReportMetric(res.CostToOutperformGPU, "outperform-$gpu")
		dba := res.Traditional[len(res.Traditional)-1]
		b.ReportMetric(dba.Dollars, "dba-total-$")
	}
}

// BenchmarkLesson1FixedVsVarying quantifies how a fixed benchmark
// overstates the learned system's advantage.
func BenchmarkLesson1FixedVsVarying(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Lesson1(benchScale(), 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FixedRatio, "fixed-ratio")
		b.ReportMetric(res.DriftRatio, "drift-ratio")
	}
}

// BenchmarkLesson2AverageHides shows two configurations with near-equal
// averages but divergent tails.
func BenchmarkLesson2AverageHides(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Lesson2(benchScale(), 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanGapFraction*100, "mean-gap-pct")
		b.ReportMetric(res.TailRatio, "p99-ratio")
	}
}

// BenchmarkLesson3Training reports the training-inclusive break-even
// query count.
func BenchmarkLesson3Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Lesson3(benchScale(), 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TrainNs)/1e6, "train-ms")
		b.ReportMetric(res.BreakEvenQueries, "breakeven-queries")
	}
}

// BenchmarkLesson4TCO reports TCO with and without the human cost.
func BenchmarkLesson4TCO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := figures.Lesson4()
		b.ReportMetric(res.FullLearned, "learned-tco-$")
		b.ReportMetric(res.FullDBA, "dba-tco-$")
	}
}

// BenchmarkOptimizerDrift regenerates the learned-query-optimizer drift
// experiment (extension of Fig 1b/1c onto the SQL substrate).
func BenchmarkOptimizerDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.OptDrift(benchScale(), 9)
		if err != nil {
			b.Fatal(err)
		}
		static := res.Results["static-histogram"]
		learned := res.Results["learned-steered"]
		b.ReportMetric(static.Throughput(), "static-q/s")
		b.ReportMetric(learned.Throughput(), "learned-q/s")
	}
}

// BenchmarkAblationSLA compares calibrated vs fixed SLA thresholds
// (DESIGN.md §5.1).
func BenchmarkAblationSLA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationSLA(benchScale(), 21)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CalibratedViolationRate*100, "calibrated-viol-pct")
		b.ReportMetric(res.LooseViolationRate*100, "loose-viol-pct")
		b.ReportMetric(res.TightViolationRate*100, "tight-viol-pct")
	}
}

// BenchmarkAblationPhi measures KS/MMD ordering agreement (DESIGN.md §5.2).
func BenchmarkAblationPhi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := figures.AblationPhi(22)
		b.ReportMetric(res.OrderAgreement*100, "agreement-pct")
	}
}

// BenchmarkAblationTransition compares abrupt vs gradual transitions
// (DESIGN.md §5.3).
func BenchmarkAblationTransition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationTransition(benchScale(), 23)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AbruptDip*100, "abrupt-dip-pct")
		b.ReportMetric(res.GradualDip*100, "gradual-dip-pct")
	}
}

// BenchmarkAblationTrainingPlacement compares online vs scheduled
// retraining (DESIGN.md §5.4).
func BenchmarkAblationTrainingPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationTrainingPlacement(benchScale(), 24)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.OnlineOverSLA)/1e6, "online-oversla-ms")
		b.ReportMetric(float64(res.ScheduledOverSLA)/1e6, "scheduled-oversla-ms")
	}
}

// BenchmarkAblationHoldout measures the in/out-of-sample gap (DESIGN.md §5.5).
func BenchmarkAblationHoldout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationHoldout(benchScale(), 25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LearnedGap, "learned-gap")
		b.ReportMetric(res.TraditionalGap, "traditional-gap")
	}
}

// BenchmarkQualityScorer exercises the §V-C dataset-quality tool.
func BenchmarkQualityScorer(b *testing.B) {
	keys := distgen.Keys(distgen.NewZipfKeys(1, 1.2, 100000), 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := quality.Score(keys, nil)
		if i == 0 {
			b.ReportMetric(r.Overall, "overall-score")
		}
	}
}

// BenchmarkSynthesizer exercises the §V-C workload synthesizer: fit a
// drifting trace, regenerate, and report the marginal fidelity (KS).
func BenchmarkSynthesizer(b *testing.B) {
	d := distgen.NewBlend(1,
		distgen.NewLognormal(2, 0, 1.5, 1e12),
		distgen.NewClustered(3, 8, 1e9))
	trace := make([]uint64, 40000)
	for i := range trace {
		trace[i] = distgen.KeysAt(d, float64(i)/float64(len(trace)), 1)[0]
	}
	ops := make([]workload.Op, len(trace))
	for i, k := range trace {
		ops[i].Key = k
	}
	syn := make([]workload.Op, len(trace))
	gaps := make([]int64, len(trace))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := workload.FitStream(ops, nil, workload.FitOptions{})
		workload.NewSynthesizer(st, 4, 0).Fill(syn, gaps, 0, len(syn))
		if i == 0 {
			keys := make([]uint64, len(syn))
			for j, op := range syn {
				keys[j] = op.Key
			}
			b.ReportMetric(similarity.KS(trace, keys), "ks-orig-vs-synth")
		}
	}
}

// BenchmarkSimilarity exercises the Φ estimators (§V-D1).
func BenchmarkSimilarity(b *testing.B) {
	a := distgen.Keys(distgen.NewUniform(1, 0, 1<<40), 10000)
	c := distgen.Keys(distgen.NewClustered(2, 10, 1e8), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = similarity.KS(a, c)
		_ = similarity.MMDSub(a, c, 0, 200)
	}
}

// --- Micro-benchmarks calibrating the virtual cost model ------------------

func loadedKeys(n int) ([]uint64, []uint64) {
	keys := distgen.UniqueKeys(distgen.NewUniform(1, 0, 1<<40), n)
	vals := make([]uint64, len(keys))
	return keys, vals
}

func BenchmarkMicroBTreeGet(b *testing.B) {
	keys, vals := loadedKeys(1_000_000)
	tr := btree.NewDefault()
	tr.BulkLoad(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%len(keys)])
	}
}

func BenchmarkMicroRMIGet(b *testing.B) {
	keys, vals := loadedKeys(1_000_000)
	ix := rmi.NewDefault()
	ix.BulkLoad(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Get(keys[i%len(keys)])
	}
}

func BenchmarkMicroALEXGet(b *testing.B) {
	keys, vals := loadedKeys(1_000_000)
	ix := alex.New()
	ix.BulkLoad(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Get(keys[i%len(keys)])
	}
}

func BenchmarkMicroALEXInsert(b *testing.B) {
	ix := alex.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(uint64(i)*2654435761, uint64(i))
	}
}

// BenchmarkMicroALEXInsertDrift is mem-drift's shift phase in miniature: 32
// clusters of new keys far above a 250k-key zipf load, so the nodes they
// land in have stale models that clamp predictions to the node's end, each
// search walks back over a packed run, and the nodes expand and split several
// times at real benchtime; allocs/op guards the rebuild scratch.
func BenchmarkMicroALEXInsertDrift(b *testing.B) {
	loaded := distgen.UniqueKeys(distgen.NewZipfKeys(1, 1.1, 1<<22), 250_000)
	ix := alex.New()
	ix.BulkLoad(loaded, make([]uint64, len(loaded)))
	keys := distgen.Keys(distgen.NewClustered(4, 32, float64(distgen.KeyDomain)/4096), b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := range keys {
		ix.Insert(k, uint64(i))
	}
}

// BenchmarkALEXShiftPhase is that shift phase as one iteration long enough
// for benchguard's 1 ms floor: 16 384 inserts from one narrow cluster into a
// freshly bulk-loaded copy of the same zipf index (the load is untimed). The
// cluster packs into a run that grows to thousands of slots, so insertAt's
// gap shift is most of the work.
func BenchmarkALEXShiftPhase(b *testing.B) {
	loaded := distgen.UniqueKeys(distgen.NewZipfKeys(1, 1.1, 1<<22), 250_000)
	vals := make([]uint64, len(loaded))
	keys := distgen.Keys(distgen.NewClustered(4, 1, float64(distgen.KeyDomain)/4096), 16_384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := alex.New()
		ix.BulkLoad(loaded, vals)
		b.StartTimer()
		for j, k := range keys {
			ix.Insert(k, uint64(j))
		}
	}
}

// BenchmarkScanPhase is the repository benchmark's mem-drift scan phase
// reduced to the scans: 250 000 zipf(1.1) keys in btree, rmi and alex behind
// core.IndexSUT, loaded untimed, then 4 096 limit-200 scans per SUT from
// zipf-drawn keys in each iteration.
func BenchmarkScanPhase(b *testing.B) {
	loaded := distgen.UniqueKeys(distgen.NewZipfKeys(1, 1.1, 1<<22), 250_000)
	vals := core.LoadValues(loaded)
	starts := distgen.Keys(distgen.NewZipfKeys(6, 1.1, 1<<22), 4096)
	suts := []core.SUT{core.NewBTreeSUT(), core.NewRMISUT(), core.NewALEXSUT()}
	for _, s := range suts {
		s.Load(loaded, vals)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range suts {
			for _, k := range starts {
				s.Do(workload.Op{Type: workload.Scan, Key: k, ScanLimit: 200})
			}
		}
	}
}

func BenchmarkMicroBTreeInsert(b *testing.B) {
	tr := btree.NewDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i)*2654435761, uint64(i))
	}
}

// BenchmarkMicroRMIInsert inserts absent keys drawn from 16 narrow clusters
// into a 250k-key RMI, so the delta fills, splits blocks and auto-merges
// several times at real benchtime; allocs/op guards the block recycling.
func BenchmarkMicroRMIInsert(b *testing.B) {
	keys, vals := loadedKeys(250_000)
	ix := rmi.NewDefault()
	ix.BulkLoad(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(uint64(i%16)<<36+uint64(i)*2654435761%(1<<24), uint64(i))
	}
}

// BenchmarkFig1fStorage regenerates Figure 1f: the storage-tier panel
// (cold-cache policy shootout, pool-size sweep, write-heavy compaction).
func BenchmarkFig1fStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig1f(benchScale(), 10)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for _, c := range res.Cold {
			if c.HitRatio < lo {
				lo = c.HitRatio
			}
			if c.HitRatio > hi {
				hi = c.HitRatio
			}
		}
		b.ReportMetric((hi-lo)*100, "cold-policy-gap-pct")
		b.ReportMetric(res.IOBound[len(res.IOBound)-1].Throughput/res.IOBound[0].Throughput, "pool-sweep-speedup")
		for _, p := range res.WriteHeavy {
			if p.SUT == "disk-btree" {
				b.ReportMetric(float64(p.PagesWritten), "btree-pages-written")
			}
		}
	}
}

// --- Disk storage-tier micro-benchmarks -----------------------------------

// newBenchPool builds an in-memory page file under a pool of the given
// configuration, failing the benchmark on error.
func newBenchPool(b *testing.B, knobs pager.PoolKnobs) *pager.Pool {
	b.Helper()
	f, err := pager.Create(pager.NewMemBackend())
	if err != nil {
		b.Fatal(err)
	}
	return pager.NewPool(f, knobs)
}

// BenchmarkDiskBTreeGet measures point lookups through the paged B+ tree:
// warm = a pool big enough to hold the whole tree (pure CPU + pool
// bookkeeping), cold = a small pool thrashing on random access (every
// lookup pays backend page reads).
func BenchmarkDiskBTreeGet(b *testing.B) {
	keys, vals := loadedKeys(200_000)
	run := func(b *testing.B, knobs pager.PoolKnobs, drop bool) {
		pool := newBenchPool(b, knobs)
		tr := diskbtree.New(pool)
		tr.BulkLoad(keys, vals)
		if drop {
			if err := pool.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			if err := pool.DropCache(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Get(keys[(i*16777619)%len(keys)])
		}
	}
	b.Run("warm", func(b *testing.B) {
		run(b, pager.PoolKnobs{Pages: 4096, Policy: "lru"}, false)
	})
	b.Run("cold", func(b *testing.B) {
		run(b, pager.PoolKnobs{Pages: 64, Policy: "lru"}, true)
	})
}

// BenchmarkDiskLSMPut measures the disk LSM write path end to end:
// memtable inserts, run-file flushes through the pager, and size-tiered
// compaction rewrites.
func BenchmarkDiskLSMPut(b *testing.B) {
	store, err := kv.OpenDisk(newBenchPool(b, pager.PoolKnobs{Pages: 256, Policy: "lru"}), kv.DefaultKnobs())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Put(uint64(i)*2654435761, uint64(i))
	}
}

// BenchmarkDiskLSMLoad measures the disk LSM's initial load through the SUT
// adapter (Puts, flushes, full-merge compactions, one checkpoint). Two
// sizes a factor of four apart show how far from linear it is: ns/key is
// the number to compare across them.
func BenchmarkDiskLSMLoad(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"50k", 50_000}, {"200k", 200_000}} {
		n := size.n
		keys, vals := loadedKeys(n)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.NewDiskKVSUT(kv.DefaultKnobs(), pager.DefaultPoolKnobs()).Load(keys, vals)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		})
	}
}

// BenchmarkMicroDiskLSMGetOverwrite is the disk-cold workload's disk LSM in
// miniature: 50k keys under a 16-page LRU pool, driven through the SUT
// adapter's Do by a pre-generated Balanced stream of zipf(0.9) lookups and
// overwrites of loaded keys. Each op pays the memtable insert, its share of
// flushes, compactions and pool misses, and the adapter's counter pricing;
// the steady state allocates nothing per op.
func BenchmarkMicroDiskLSMGetOverwrite(b *testing.B) {
	const streamLen = 1 << 16
	keys, vals := loadedKeys(50_000)
	sut := core.NewDiskKVSUT(kv.DefaultKnobs(), pager.PoolKnobs{Pages: 16, Policy: "lru"})
	sut.Load(keys, vals)
	z := stats.NewScrambledZipf(stats.NewRNG(2), 0.9, uint64(len(keys)))
	pick := func() []uint64 {
		out := make([]uint64, streamLen)
		for i := range out {
			out[i] = keys[z.Next()]
		}
		return out
	}
	spec := workload.Spec{Mix: workload.Balanced, Access: distgen.NewReplay(pick()), InsertKeys: distgen.NewReplay(pick())}
	ops := make([]workload.Op, streamLen)
	workload.NewSource(spec, nil, 3).Fill(ops, make([]int64, streamLen), 0, streamLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sut.Do(ops[i%streamLen])
	}
}

// BenchmarkMicroRunnerOverhead measures the virtual runner's per-op cost.
func BenchmarkMicroRunnerOverhead(b *testing.B) {
	scenario := core.Scenario{
		Name:        "overhead",
		Seed:        1,
		InitialData: distgen.NewUniform(1, 0, 1<<40),
		InitialSize: 10000,
		IntervalNs:  1_000_000,
		Phases: []core.Phase{{
			Name: "p",
			Ops:  100000,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.ReadHeavy,
				Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<40)},
			}, nil),
		}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewRunner().Run(scenario, core.NewBTreeSUT()); err != nil {
			b.Fatal(err)
		}
	}
}

// preloadedSUT is an index SUT that already holds the scenario's pinned
// initial keys, so the runner's Load has nothing left to do.
type preloadedSUT struct{ *core.IndexSUT }

func (preloadedSUT) Load(_, _ []uint64) {}

// BenchmarkMicroRunnerDispatch measures the runner's steady-state per-op
// dispatch cost: one run whose single phase executes b.N read-only ops over
// a SUT loaded off the clock, so what per-run setup is left (collector,
// result) amortizes away and allocs/op converges on the true per-op
// allocation count — which must be 0 (key draws go through fixed buffers,
// dispatch buffers come from a pool, and the collector's curve is sized
// from the phase's op count).
func BenchmarkMicroRunnerDispatch(b *testing.B) {
	keys := distgen.UniqueKeys(distgen.NewUniform(1, 0, 1<<40), 100000)
	scenario := core.Scenario{
		Name:        "dispatch",
		Seed:        1,
		InitialKeys: keys,
		IntervalNs:  1_000_000,
		Phases: []core.Phase{{
			Name: "p",
			Ops:  b.N,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.Mix{GetFrac: 1},
				Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<40)},
			}, nil),
		}},
	}
	sut := preloadedSUT{core.NewBTreeSUT().(*core.IndexSUT)}
	sut.IndexSUT.Load(keys, core.LoadValues(keys))
	r := core.NewRunner()
	r.Batch = 64
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := r.Run(scenario, sut); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicroHistogramRecord measures one bucketing of one latency —
// what every completion pays once per histogram it lands in.
func BenchmarkMicroHistogramRecord(b *testing.B) {
	h := metrics.NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(200 + int64(uint32(i)*2654435761>>22))
	}
}

// BenchmarkMicroCollectorRecord measures the collector's share of one
// completion recorded on its own: curve point, interval count, phase
// histogram, SLA band. The collector is told its op count, as the runner
// tells it, so the curve never regrows and the loop must stay at 0
// allocs/op; it is replaced (off the clock) every 64k records so the curve
// stays cache-sized at any b.N.
func BenchmarkMicroCollectorRecord(b *testing.B) {
	const chunk = 1 << 16
	var col *metrics.Collector
	var done int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 {
			b.StopTimer()
			col = metrics.NewCollector(metrics.CollectorConfig{IntervalNs: 1 << 40, SLANs: 10_000, Ops: chunk + 1})
			done = 0
			col.Record(done, 200) // the phase histogram and band exist from here on
			b.StartTimer()
		}
		lat := 200 + int64(uint32(i)*2654435761>>22)
		done += lat
		col.Record(done, lat)
	}
}

// BenchmarkMicroCollectorRecordBatch measures what the runner hands the
// collector per dispatch batch: one op is one RecordBatch of a 64-completion
// run, and the interval is about three runs wide, so every few runs cross
// into the next one. The completion stream is generated off the clock; the
// collector is replaced (off the clock) every 1024 runs, and the loop must
// stay at 0 allocs/op.
func BenchmarkMicroCollectorRecordBatch(b *testing.B) {
	const run, chunk = 64, 1 << 10
	done := make([]int64, run*chunk)
	lat := make([]int64, run*chunk)
	var t int64
	for i := range done {
		lat[i] = 200 + int64(uint32(i)*2654435761>>22)
		t += lat[i]
		done[i] = t
	}
	var col *metrics.Collector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % chunk
		if k == 0 {
			b.StopTimer()
			col = metrics.NewCollector(metrics.CollectorConfig{IntervalNs: 1 << 17, SLANs: 10_000, Ops: run*chunk + 1})
			col.Record(0, 200) // the phase histogram, first interval and band exist from here on
			b.StartTimer()
		}
		col.RecordBatch(done[k*run:(k+1)*run], lat[k*run:(k+1)*run])
	}
}

// BenchmarkTraceReplay measures the replay seam: each iteration copies one
// 64-op batch (ops + gaps) out of a pinned in-memory trace through
// TraceReader.Fill — the exact path the runner takes for materialized
// phases and recorded-trace replay. Replay is a pure copy and must stay at
// 0 allocs/op, so substituting a trace for a generator never perturbs the
// measured system with garbage.
func BenchmarkTraceReplay(b *testing.B) {
	const n, batch = 1 << 16, 64
	src := workload.NewSource(workload.Spec{
		Mix:    workload.Mix{GetFrac: 0.7, PutFrac: 0.2, DeleteFrac: 0.05, ScanFrac: 0.05, ScanLimit: 16},
		Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<40)},
	}, nil, 1)
	ops := make([]workload.Op, n)
	gaps := make([]int64, n)
	src.Fill(ops, gaps, 0, n)
	tr := workload.NewTraceReader("bench", ops, gaps)
	bo := make([]workload.Op, batch)
	bg := make([]int64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := (i % (n / batch)) * batch
		if got := tr.Fill(bo, bg, pos, n); got != batch {
			b.Fatalf("short fill at pos %d: %d", pos, got)
		}
	}
}

// BenchmarkSynthFill measures the synthesizer's per-batch op generation:
// statistics are fitted once from a recorded stream (setup, untimed), then
// each iteration draws one 64-op batch from the fitted popularity/gap/mix
// model with Redbench-style repetition enabled.
func BenchmarkSynthFill(b *testing.B) {
	const n, batch = 1 << 16, 64
	src := workload.NewSource(workload.Spec{
		Mix:    workload.Mix{GetFrac: 0.7, PutFrac: 0.2, DeleteFrac: 0.05, ScanFrac: 0.05, ScanLimit: 16},
		Access: distgen.Static{G: distgen.NewZipfKeys(3, 1.1, 1<<22)},
	}, nil, 1)
	ops := make([]workload.Op, n)
	gaps := make([]int64, n)
	src.Fill(ops, gaps, 0, n)
	st := workload.FitStream(ops, gaps, workload.FitOptions{})
	syn := workload.NewSynthesizer(st, 7, 0.25)
	bo := make([]workload.Op, batch)
	bg := make([]int64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn.Fill(bo, bg, i*batch, 1<<30)
	}
}

// BenchmarkFig1gDriftSweep regenerates Figure 1g: the metric quadruple
// vs drift intensity across the data/query/session panels, reporting the
// endpoints' headline ratios.
func BenchmarkFig1gDriftSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig1g(benchScale(), 42)
		if err != nil {
			b.Fatal(err)
		}
		cell := func(d float64, sut string) float64 {
			for _, c := range res.Data {
				if c.D == d && c.SUT == sut {
					return c.Throughput
				}
			}
			b.Fatalf("missing data cell D=%v %s", d, sut)
			return 0
		}
		last := res.Intensities[len(res.Intensities)-1]
		b.ReportMetric(cell(0, "alex")/cell(last, "alex"), "alex-slowdown")
		b.ReportMetric(cell(0, "btree")/cell(last, "btree"), "btree-slowdown")
	}
}

// BenchmarkDriftFill measures the drift controller's hot path: each
// iteration fills one 64-key batch at mid-profile intensity, paying the
// coupled base+target draws plus the selection variate per key. The
// controller sits on the op-generation fast path, so it must stay at
// 0 allocs/op (benchguard-gated).
func BenchmarkDriftFill(b *testing.B) {
	const batch = 64
	ctrl := driftctl.NewCalibrated(9,
		func(s uint64) distgen.Generator { return distgen.NewUniform(s, 0, 1<<40) },
		func(s uint64) distgen.Generator { return distgen.NewZipfKeys(s, 1.1, 1<<22) },
		driftctl.Knob{Factor: 0.5, Profile: driftctl.Ramp()}, 0)
	out := make([]uint64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.FillAt(0.5, out)
	}
}

// BenchmarkUniqueKeys measures initial-data generation at the benchmark's
// sizes: mem-drift's 250k keys from zipf(1.1) over 2^22, where duplicates
// cost several whole batches of draws, and mem-point's 262k uniform keys
// over 2^40. Each iteration starts from a fresh, identically seeded
// generator, so every iteration does the same work.
func BenchmarkUniqueKeys(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		gen  func() distgen.Generator
	}{
		{"zipf-250k", 250_000, func() distgen.Generator { return distgen.NewZipfKeys(1, 1.1, 1<<22) }},
		{"uniform-262k", 262_144, func() distgen.Generator { return distgen.NewUniform(1, 0, 1<<40) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				distgen.UniqueKeys(c.gen(), c.n)
			}
		})
	}
}

// BenchmarkWireLoad measures wire-rt's bulk load: serve a B+ tree on the
// loopback interface, dial it and Load 200 000 pairs, so an iteration is
// the connection set-up plus the pairs' trip through both ends' framing and
// the server's BulkLoad.
func BenchmarkWireLoad(b *testing.B) {
	keys := distgen.UniqueKeys(distgen.NewUniform(1, 0, 1<<40), 200_000)
	values := core.LoadValues(keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
		if err != nil {
			b.Fatal(err)
		}
		c, err := netdriver.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		c.Load(keys, values)
		if err := c.Err(); err != nil {
			b.Fatal(err)
		}
		c.Close()
		srv.Close()
	}
}

// BenchmarkSessionArrival measures the IDEBench-style session pacer: one
// think/intra gap draw per iteration. It runs inside every op-dispatch
// loop, so it must stay at 0 allocs/op (benchguard-gated).
func BenchmarkSessionArrival(b *testing.B) {
	sa := workload.NewSessionArrival(5, 2_000_000, 50_000, 3, 9)
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += sa.NextGap(0)
	}
	_ = sink
}

// --- Large-scale tier ------------------------------------------------------
//
// The benchmarks below run against a datagen-scale dataset: 100M keys by
// default (the paper's "realistic data sizes" argument needs indexes that
// dwarf the caches), overridable down for CI with LSBENCH_LARGE_N. They are
// excluded from bench-smoke (-skip '^BenchmarkLarge') and run via
// `make bench-large`, which pins LSBENCH_LARGE_N to a CI-sized value.

// largeN is the large-tier dataset size: LSBENCH_LARGE_N or 100M.
func largeN() int {
	if s := os.Getenv("LSBENCH_LARGE_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 100_000_000
}

// largeDataset builds the large key/value arrays once per process.
// Sequential generation with random gaps is O(n) with no dedup table, so
// 100M keys materialize in seconds rather than the minutes a hash-set
// uniqueness filter would take.
var largeDataset struct {
	once       sync.Once
	keys, vals []uint64
}

func largeKeys(b *testing.B) ([]uint64, []uint64) {
	b.Helper()
	largeDataset.once.Do(func() {
		n := largeN()
		largeDataset.keys = distgen.Keys(distgen.NewSequential(1, 1, 16), n)
		largeDataset.vals = make([]uint64, n)
	})
	return largeDataset.keys, largeDataset.vals
}

// BenchmarkLargeBTreeBulkLoad measures the parallel arena bulk load.
func BenchmarkLargeBTreeBulkLoad(b *testing.B) {
	keys, vals := largeKeys(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := btree.NewDefault()
		tr.BulkLoad(keys, vals)
	}
}

// BenchmarkLargeRMITrain measures RMI bulk load + parallel leaf training.
func BenchmarkLargeRMITrain(b *testing.B) {
	keys, vals := largeKeys(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := rmi.NewDefault()
		ix.BulkLoad(keys, vals)
	}
}

// BenchmarkLargeALEXBulkLoad measures the parallel arena node build.
func BenchmarkLargeALEXBulkLoad(b *testing.B) {
	keys, vals := largeKeys(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := alex.New()
		ix.BulkLoad(keys, vals)
	}
}

// largeProbe strides pseudo-randomly through the key space so lookups are
// cache-hostile (the point of the 100M tier) yet deterministic.
func largeProbe(i, n int) int { return int(uint64(i) * 0x9E3779B97F4A7C15 % uint64(n)) }

func BenchmarkLargeBTreeGet(b *testing.B) {
	keys, vals := largeKeys(b)
	tr := btree.NewDefault()
	tr.BulkLoad(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[largeProbe(i, len(keys))])
	}
}

func BenchmarkLargeRMIGet(b *testing.B) {
	keys, vals := largeKeys(b)
	ix := rmi.NewDefault()
	ix.BulkLoad(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Get(keys[largeProbe(i, len(keys))])
	}
}

func BenchmarkLargeALEXGet(b *testing.B) {
	keys, vals := largeKeys(b)
	ix := alex.New()
	ix.BulkLoad(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Get(keys[largeProbe(i, len(keys))])
	}
}
