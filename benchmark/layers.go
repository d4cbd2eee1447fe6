package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// refSeconds is the measured-region length the workload constants are sized
// for on the reference box (2 vCPU); BENCHMARK.json's run_seconds equals it.
// -seconds scales the op counts linearly from here. They do not adapt to the
// clock, so the virtual results and every exact count repeat bit for bit.
const refSeconds = 15

// Every run of a virtual-clock workload is repeated (memPointReps and so on),
// on fresh SUTs and freshly generated (identical) inputs. The runs are
// deterministic, so each repetition makes the same calls in the same order,
// and the time of a call is taken as the quietest of its repetitions (see
// quietest). On the reference box the hypervisor takes the CPU away for
// milliseconds at a time, 5 % to 70 % of any one second, and for minutes at
// a time most of what runs is slowed by a tenth to a third: a sum of wall
// times measures the neighbours, the sum of each call's quietest time does
// not. The more often a piece is repeated, the surer it is to meet a quiet
// moment once; the price is one more setup per repetition.

// config is one pass over one workload.
type config struct {
	seed    uint64
	seconds float64
	shrink  int     // divides key and op counts; 1 outside tests
	tracer  *tracer // nil: end-to-end pass
}

func (c config) shrunk(n int) int { return max(n/c.shrink, 64) }

// scaled is ref, sized for refSeconds, at the pass's -seconds.
func (c config) scaled(ref int) int {
	return max(int(math.Round(float64(ref)*c.seconds/refSeconds)), 1)
}

func secondsSince(t0 int64) float64 { return float64(now()-t0) / 1e9 }

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eDefs are the end-to-end metrics, with the share of the parent's median
// each may worsen by. Every workload reports all of them.
//
// The tail latency is a percentile chosen per workload, because a percentile
// that sits on the edge of a population of slow pieces flips between two
// values for no reason a change would have. On wire-rt a worker that waits
// for the driver's lock gets it after the mutex's 1 ms starvation threshold,
// while the other makes a hundred round trips of 10 us, so that one op in a
// hundred, give or take a third, takes 1 ms: the p99 reads 1020 us or 60 us
// as the round trip gets a tenth slower or faster, and the p99.5 sits inside
// that population. On disk-cold one dispatch cycle in 240 holds an LSM flush
// (0.41 %), which the p99.5 has on its edge and the p99 well beyond it.
var e2eDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_tail_us", "us", "lower", 0.25},
	{"setup_heap_mb", "MB", "lower", 0.10},
}

// The quantiles lat_tail_us reports.
const (
	virtualTail = 0.99
	wireTail    = 0.995
)

// Positions in e2eDefs.
const (
	mOps = iota
	mSetup
	mP50
	mTail
	mHeap
)

var (
	memSUTs  = []string{"btree", "rmi", "alex"}
	diskSUTs = []string{"disk-btree", "disk-lsm"}
	allSUTs  = append(append([]string{}, memSUTs...), diskSUTs...)
)

// layerDefs lists every per-layer metric in print order. A workload on whose
// path a layer does no work reports 0 for that layer's metrics.
func layerDefs() []metricDef {
	var d []metricDef
	one := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	per := func(prefix, unit, better string, suts ...string) {
		for _, s := range suts {
			one(prefix+"."+s, unit, better)
		}
	}
	one("distgen.unique_keys_s", "s", "lower")
	one("distgen.draw_ns_per_key", "ns", "lower")
	one("workload.materialize_s", "s", "lower")
	one("workload.fill_ns_per_op", "ns/op", "lower")
	per("core.run_ns_per_op", "ns/op", "lower", allSUTs...)
	per("core.sut_ns_per_op", "ns/op", "lower", allSUTs...)
	one("core.harness_self_ns_per_op", "ns/op", "lower")
	per("core.adapter_ns_per_op", "ns/op", "lower", memSUTs...)
	one("core.batch_calls_per_op", "count/op", "lower")
	per("core.load_s", "s", "lower", allSUTs...)
	per("core.train_s", "s", "lower", "rmi", "alex")
	per("core.retrain_s", "s", "lower", "rmi", "alex")
	one("kv.load_us_per_key", "us", "lower")
	per("index.get_ns_per_op", "ns/op", "lower", memSUTs...)
	per("index.compares_per_op", "count/op", "lower", "btree", "rmi", "alex", "disk-btree")
	per("index.model_err_per_search", "count", "lower", "rmi", "alex")
	per("index.splits_per_kop", "count/kop", "lower", "btree", "rmi", "alex", "disk-btree")
	per("index.online_train_work_per_op", "count/op", "lower", "rmi", "alex")
	one("sim.price_ns_per_op", "ns/op", "lower")
	per("sim.virtual_ns_per_op", "ns/op", "lower", allSUTs...)
	per("sim.virtual_over_wall", "ratio", "higher", allSUTs...)
	one("metrics.record_ns_per_op", "ns/op", "lower")
	one("metrics.snapshot_ms", "ms", "lower")
	per("pager.hit_ratio", "ratio", "higher", diskSUTs...)
	per("pager.pages_read_per_op", "count/op", "lower", diskSUTs...)
	per("pager.pages_written_per_op", "count/op", "lower", diskSUTs...)
	per("pager.evictions_per_op", "count/op", "lower", diskSUTs...)
	per("pager.fsyncs_per_kop", "count/kop", "lower", diskSUTs...)
	one("pager.backend_busy_ns_per_op.disk-btree", "ns/op", "lower")
	one("pager.pool_self_ns_per_op.disk-btree", "ns/op", "lower")
	one("kv.flushes_per_kop", "count/kop", "lower")
	one("kv.compactions_per_kop", "count/kop", "lower")
	one("kv.compacted_entries_per_put", "count", "lower")
	one("kv.runs_searched_per_get", "count", "lower")
	one("kv.bloom_negative_frac", "ratio", "higher")
	one("netdriver.roundtrip_us_p50", "us", "lower")
	one("netdriver.roundtrip_us_p99", "us", "lower")
	one("netdriver.server_sut_us_p50", "us", "lower")
	one("netdriver.wire_self_us_mean", "us", "lower")
	one("netdriver.retries", "count", "lower")
	one("netdriver.load_s", "s", "lower")
	one("driver.lock_wait_us_mean", "us", "lower")
	one("driver.post_s", "s", "lower")
	one("driver.achieved_ops_per_s_best", "1/s", "higher")
	one("driver.achieved_ops_per_s_median", "1/s", "higher")
	one("runtime.allocs_per_op", "count/op", "lower")
	one("trace.overhead_frac", "ratio", "lower")
	return d
}

// passResult is everything one pass over one workload produced.
type passResult struct {
	workload string
	c        config

	e2e   []float64 // the end-to-end values, in e2eDefs order
	notes []string  // what the report prints beside each

	attempted, failed int64
	digest            digest
	problems          []string

	layer map[string]float64

	// Virtual-clock workloads: the repetitions of every SUT of the lineup,
	// and the time each repetition spent generating its inputs.
	lineup  []string
	runs    map[string][]sutRun
	inputNs []int64
}

func newPass(workload string, c config) *passResult {
	return &passResult{workload: workload, c: c, e2e: make([]float64, len(e2eDefs)), notes: make([]string, len(e2eDefs)),
		layer: map[string]float64{}, runs: map[string][]sutRun{}}
}

// layerMin keeps the quietest of a layer timing's repetitions.
func (pr *passResult) layerMin(name string, v float64) {
	if old, seen := pr.layer[name]; !seen || v < old {
		pr.layer[name] = v
	}
}

// addRun checks one repetition of one SUT against the oracle's expectation
// for its stream and against the SUT's first repetition, folds its virtual
// result into the digest, and keeps its probe.
func (pr *passResult) addRun(run sutRun, want expectation) {
	name := run.def.name
	who := fmt.Sprintf("%s/%s#%d", pr.workload, name, len(pr.runs[name]))
	pr.problems = append(pr.problems, want.check(who, run.res.Outcomes, run.p.visited)...)
	if run.p.ops != want.ops {
		pr.problems = append(pr.problems, fmt.Sprintf("%s: dispatched %d ops, stream has %d", who, run.p.ops, want.ops))
	}
	run.virt.addResult(run.res)
	run.virtualNs = run.res.DurationNs - run.res.PhaseStarts[0]
	run.isDisk = run.res.Storage != nil
	if prev := pr.runs[name]; len(prev) > 0 && (prev[0].virt != run.virt || len(prev[0].p.starts) != len(run.p.starts)) {
		pr.problems = append(pr.problems, who+": differs from the SUT's first repetition: the run is not deterministic")
	}
	pr.digest.add(int64(run.virt.h))
	pr.attempted += want.ops
	pr.failed += want.ops - run.res.Completed // failed ops and any the run never reached
	if len(pr.runs[name]) == 0 {
		pr.lineup = append(pr.lineup, name)
	}
	// Only the probe's timings are kept: the SUT, the Result with its per-op
	// curves and the recorded work must not sit in the heap the next
	// setup_heap_mb reading sees.
	run.res, run.inner, run.p.work = nil, nil, nil
	pr.runs[name] = append(pr.runs[name], run)
}

// series collects one per-batch series from every repetition.
func series(runs []sutRun, of func(*probe) []int64) [][]int64 {
	out := make([][]int64, len(runs))
	for i, run := range runs {
		out[i] = of(run.p)
	}
	return out
}

// quietSum is the sum over batches of the quietest repetition of each.
func quietSum(runs []sutRun, of func(*probe) []int64) int64 {
	return sumInt64(quietest(series(runs, of)))
}

// quietCall is the quietest repetition of one call made once per run.
func quietCall(runs []sutRun, of func(*probe) int64) int64 {
	v := make([]int64, len(runs))
	for i, run := range runs {
		v[i] = of(run.p)
	}
	return slices.Min(v)
}

// finishVirtual derives the end-to-end values of a virtual-clock workload
// from the repetitions of its lineup. The lineup is blended on purpose — the
// likeliest optimisations sit in the harness layers every SUT shares;
// per-SUT figures are layer metrics.
func (pr *passResult) finishVirtual() {
	var ops, runNs, setupNs int64
	var p50, p99 float64
	var pooled []int64
	nReps := len(pr.inputNs)
	rawNs, rawSetupNs, heap := make([]int64, nReps), append([]int64(nil), pr.inputNs...), make([]float64, nReps)
	share := 1 / float64(len(pr.lineup))
	for _, name := range pr.lineup {
		runs := pr.runs[name]
		cycles := quietest(series(runs, (*probe).cycles))
		ops += runs[0].p.ops
		runNs += sumInt64(cycles)
		setupNs += quietCall(runs, func(p *probe) int64 { return p.loadedAt - p.wrapAt }) + quietCall(runs, (*probe).initialTrainNs)
		// Quantiles are taken per SUT and averaged over the lineup: the
		// pooled sample has one mode per SUT and its median jumps between
		// them.
		pooled = append(pooled, cycles...)
		sorted := sortedCopy(cycles)
		p50 += float64(percentile(sorted, 0.5)) / 1e3 * share
		p99 += float64(percentile(sorted, virtualTail)) / 1e3 * share
		for r, run := range runs {
			rawNs[r] += run.p.endAt - run.p.readyAt
			rawSetupNs[r] += run.p.loadedAt - run.p.wrapAt + run.p.initialTrainNs()
			heap[r] = max(heap[r], run.p.heapMB)
		}
	}
	setupNs += slices.Min(pr.inputNs)

	rawRates, rawSetups := make([]float64, nReps), make([]float64, nReps)
	for r := range rawNs {
		rawRates[r] = float64(ops) / (float64(rawNs[r]) / 1e9)
		rawSetups[r] = float64(rawSetupNs[r]) / 1e9
	}
	pr.e2e[mOps] = float64(ops) / (float64(runNs) / 1e9)
	pr.notes[mOps] = "from each cycle's quietest repetition; by wall time, " + quartileNote(rawRates, "repetitions")
	pr.e2e[mSetup] = float64(setupNs) / 1e9
	pr.notes[mSetup] = "from each setup call's quietest repetition; by wall time, " + quartileNote(rawSetups, "setups")
	pr.e2e[mP50], pr.e2e[mTail] = p50, p99
	pr.notes[mP50] = fmt.Sprintf("dispatch cycles of %d ops; per SUT, mean over the lineup", dispatchBatch)
	tail := tailPercentile(len(pooled))
	pr.notes[mTail] = "p99 of " + pr.notes[mP50] + fmt.Sprintf("; over all %d cycles p%.6g = %.4f us",
		len(pooled), tail*100, float64(percentile(sortedCopy(pooled), tail))/1e3)
	pr.e2e[mHeap], pr.notes[mHeap] = stats.Mean(heap), "mean of "+quartileNote(heap, "setups")
}

// finishLayers derives the per-SUT and lineup-wide layer metrics of a
// virtual-clock workload. Every time is a sum of quietest repetitions;
// ratios are ratios of such sums.
func (pr *passResult) finishLayers() {
	var ops, calls, runNs, sutNs, fillNs, srcOps int64
	var mallocs uint64
	for _, name := range pr.lineup {
		runs := pr.runs[name]
		p := runs[0].p // counts are the same in every repetition
		n := float64(p.ops)
		set := func(prefix string, v float64) { pr.layer[prefix+"."+name] = v }

		run := quietSum(runs, (*probe).cycles)
		sut := quietSum(runs, func(p *probe) []int64 { return p.sutNs })
		fill := quietSum(runs, func(p *probe) []int64 { return p.fillNs })
		backend := quietSum(runs, func(p *probe) []int64 { return p.backendNs })
		load := quietCall(runs, func(p *probe) int64 { return p.loadNs })
		ops, calls, runNs, sutNs = ops+p.ops, calls+int64(len(p.starts)), runNs+run, sutNs+sut
		mallocs += uint64(quietCall(runs, func(p *probe) int64 { return int64(p.mallocs) }))
		if len(p.fillNs) > 0 {
			fillNs, srcOps = fillNs+fill, srcOps+p.ops
		}

		sutPerOp := ratio(float64(sut), n)
		virtPerOp := ratio(float64(runs[0].virtualNs), n)
		set("core.run_ns_per_op", ratio(float64(run), n))
		set("core.sut_ns_per_op", sutPerOp)
		set("core.load_s", float64(load)/1e9)
		set("sim.virtual_ns_per_op", virtPerOp)
		set("sim.virtual_over_wall", ratio(virtPerOp, sutPerOp))
		if name == "rmi" || name == "alex" {
			set("core.train_s", float64(quietCall(runs, (*probe).initialTrainNs))/1e9)
			set("core.retrain_s", float64(quietCall(runs, (*probe).retrainNs))/1e9)
		}
		if get, ok := pr.layer["index.get_ns_per_op."+name]; ok {
			set("core.adapter_ns_per_op", sutPerOp-get)
		}
		d := p.c1.sub(p.c0)
		if name != "disk-lsm" { // every other SUT is an index behind core.IndexSUT
			set("index.compares_per_op", ratio(float64(d.ix.Compares), n))
			set("index.splits_per_kop", ratio(float64(d.ix.Splits), n)*1000)
			if name == "rmi" || name == "alex" {
				set("index.model_err_per_search", ratio(float64(d.ix.ModelErrSum), float64(d.ix.Searches)))
				set("index.online_train_work_per_op", ratio(float64(d.ix.TrainWork), n))
			}
		}
		if runs[0].isDisk {
			set("pager.hit_ratio", d.pool.HitRatio())
			set("pager.pages_read_per_op", ratio(float64(d.pool.PagesRead), n))
			set("pager.pages_written_per_op", ratio(float64(d.pool.PagesWritten), n))
			set("pager.evictions_per_op", ratio(float64(d.pool.Evictions), n))
			set("pager.fsyncs_per_kop", ratio(float64(d.pool.Fsyncs), n)*1000)
		}
		if name == "disk-btree" && backend > 0 {
			set("pager.backend_busy_ns_per_op", ratio(float64(backend), n))
			set("pager.pool_self_ns_per_op", ratio(float64(sut-backend), n))
		}
		if name == "disk-lsm" {
			k := d.kv
			pr.layer["kv.load_us_per_key"] = ratio(float64(load)/1e3, float64(runs[0].keys))
			pr.layer["kv.flushes_per_kop"] = ratio(float64(k.Flushes), n) * 1000
			pr.layer["kv.compactions_per_kop"] = ratio(float64(k.Compactions), n) * 1000
			pr.layer["kv.compacted_entries_per_put"] = ratio(float64(k.CompactedBytes), float64(k.Puts))
			pr.layer["kv.runs_searched_per_get"] = ratio(float64(k.RunsSearchedSum), float64(k.Gets))
			pr.layer["kv.bloom_negative_frac"] = ratio(float64(k.BloomNegatives), float64(k.BloomNegatives+k.RunsSearchedSum))
		}
	}
	if ops == 0 {
		return
	}
	pr.layer["workload.fill_ns_per_op"] = ratio(float64(fillNs), float64(srcOps))
	pr.layer["core.harness_self_ns_per_op"] = float64(runNs-sutNs-fillNs) / float64(ops)
	pr.layer["core.batch_calls_per_op"] = float64(calls) / float64(ops)
	pr.layer["runtime.allocs_per_op"] = float64(mallocs) / float64(ops)
}

// sink keeps the standalone probes' results alive so the compiler cannot
// drop the loops that produce them.
var sink uint64

const probeOps = 1 << 20

// probeReps is how often a standalone probe repeats its loop.
const probeReps = 9

// quietLoop times body over items [0, n) in chunks of one dispatch batch,
// probeReps times over, and returns the sum over chunks of each chunk's quietest
// repetition, in ns per item. begin runs before each repetition and returns
// the body, so a probe with state starts every repetition from the same one.
func quietLoop(n int, begin func() (body func(lo, hi int))) float64 {
	var took [][]int64
	for r := 0; r < probeReps; r++ {
		body := begin()
		t := make([]int64, 0, n/dispatchBatch+1)
		for lo := 0; lo < n; lo += dispatchBatch {
			t0 := now()
			body(lo, min(lo+dispatchBatch, n))
			t = append(t, now()-t0)
		}
		took = append(took, t)
	}
	return ratio(float64(sumInt64(quietest(took))), float64(n))
}

// indexGetProbe replays the run's lookup keys straight into the index the
// SUT adapter wraps — no adapter, no runner — in the order the adapter's
// batch path issues them (ascending within each dispatch batch), so
// adapter_ns = sut_ns - get_ns isolates the adapter and not a locality
// difference.
func (pr *passResult) indexGetProbe(run sutRun, lookups []uint64) {
	ix := run.inner.(*core.IndexSUT).Underlying()
	keys := append([]uint64(nil), lookups[:min(len(lookups), probeOps)]...)
	for i := 0; i < len(keys); i += dispatchBatch {
		chunk := keys[i:min(i+dispatchBatch, len(keys))]
		slices.Sort(chunk)
	}
	pr.layer["index.get_ns_per_op."+run.def.name] = quietLoop(len(keys), func() func(lo, hi int) {
		return func(lo, hi int) {
			for _, k := range keys[lo:hi] {
				v, _ := ix.Get(k)
				sink += v
			}
		}
	})
}

// drawProbe times the key draw the live generator performs per op.
func (pr *passResult) drawProbe(lookups []uint64) {
	var buf [1]uint64
	pr.layer["distgen.draw_ns_per_key"] = quietLoop(min(len(lookups), probeOps), func() func(lo, hi int) {
		d := distgen.NewReplay(lookups)
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				distgen.FillAt(d, 0, buf[:])
				sink += buf[0]
			}
		}
	})
}

// harnessProbes times, standalone, the two per-op harness steps the runner
// performs between SUT calls: pricing an op's work on the virtual clock and
// recording its completion. Both replay the work values the traced run
// recorded, as the closed-loop completion sequence they produced.
func (pr *passResult) harnessProbes(run sutRun) {
	work := run.p.work[:min(len(run.p.work), probeOps)]
	cost := sim.DefaultCostModel()
	pr.layer["sim.price_ns_per_op"] = quietLoop(len(work), func() func(lo, hi int) {
		return func(lo, hi int) {
			for _, w := range work[lo:hi] {
				sink += uint64(cost.ServiceTime(w))
			}
		}
	})

	var col *metrics.Collector
	pr.layer["metrics.record_ns_per_op"] = quietLoop(len(work), func() func(lo, hi int) {
		col = metrics.NewCollector(metrics.CollectorConfig{IntervalNs: 10_000_000})
		var done int64
		return func(lo, hi int) {
			for _, w := range work[lo:hi] {
				service := cost.ServiceTime(w)
				done += service
				col.Record(done, service)
			}
		}
	})
	t0 := now()
	snap := col.Snapshot()
	pr.layer["metrics.snapshot_ms"] = float64(now()-t0) / 1e6
	sink += uint64(snap.Completed)
}
