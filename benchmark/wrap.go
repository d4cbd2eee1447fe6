package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/pager"
	"repro/internal/workload"
)

// The benchmark measures every layer from outside: it owns pass-through
// wrappers around the seams the harness already has (workload.Source,
// core.SUT via Runner.WrapSUT, pager.Backend, the netdriver.Serve factory)
// and times the calls that cross them. Nothing inside the program under
// test is instrumented.

// counters is the set of exact work counts a SUT exposes; deltas between
// the end of setup and the end of the run give the per-op layer counts.
type counters struct {
	ix   index.Stats
	pool pager.Counters
	kv   kv.Counters
}

// sub returns the counts made since o was read.
func (c counters) sub(o counters) counters {
	c.pool = c.pool.Sub(o.pool)
	c.ix.Searches -= o.ix.Searches
	c.ix.Compares -= o.ix.Compares
	c.ix.ModelErrSum -= o.ix.ModelErrSum
	c.ix.Splits -= o.ix.Splits
	c.ix.TrainWork -= o.ix.TrainWork
	c.kv.Gets -= o.kv.Gets
	c.kv.Puts -= o.kv.Puts
	c.kv.Flushes -= o.kv.Flushes
	c.kv.Compactions -= o.kv.Compactions
	c.kv.CompactedBytes -= o.kv.CompactedBytes
	c.kv.BloomNegatives -= o.kv.BloomNegatives
	c.kv.RunsSearchedSum -= o.kv.RunsSearchedSum
	return c
}

// readCounters reads whatever counters the (unwrapped) SUT exposes.
func readCounters(s core.SUT) counters {
	var c counters
	if p := core.PoolOf(s); p != nil {
		c.pool = p.Counters()
	}
	switch v := s.(type) {
	case *core.IndexSUT:
		if in, ok := v.Underlying().(index.Instrumented); ok {
			c.ix = in.Stats()
		}
	case *core.DiskKVSUT:
		c.kv = v.Store().Counters()
	}
	return c
}

// probe is everything the benchmark observes of one SUT run. With tr nil
// (the end-to-end pass) it costs two clock reads per setup call and two per
// dispatched batch; with tr set it also records spans, per-op work and the
// time inside the source and the page-file backend.
type probe struct {
	tr   *tracer
	root int32 // span "run:<workload>/<sut>"
	// batchSpan names the span around each DoBatch: what the call is
	// depends on what sits behind the SUT interface (an index adapter, or
	// on wire-rt a network round trip).
	batchSpan string
	cur       int32 // innermost open span, parent of backend spans; -1 outside calls

	// trainEndsSetup says the initial Train (Scenario.TrainBefore on a
	// Trainable SUT) closes setup; otherwise Load does.
	trainEndsSetup bool
	counters       func() counters

	wrapAt   int64 // the SUT is about to be built
	loadedAt int64 // Load returned
	readyAt  int64 // after the post-setup GC: the measured region begins
	endAt    int64 // the run returned
	loadNs   int64
	trainNs  []int64 // every Train call, initial first when trainEndsSetup
	heapMB   float64
	mallocs  uint64 // baseline at readyAt, delta after finish
	c0, c1   counters

	// One entry per dispatched batch. Repetitions of a run dispatch the same
	// batches, so entry i of one repetition is comparable with entry i of
	// another (see quietest).
	starts    []int64 // DoBatch entry stamps
	sutNs     []int64 // wall time inside DoBatch
	fillNs    []int64 // wall time inside Source.Fill, traced pass only
	backendNs []int64 // wall time inside pager.Backend, traced pass only
	backend   int64   // accumulates during the batch in flight

	ops     int64
	visited int64
	work    []int64 // per-op OpResult.Work, traced pass only
}

// newProbe starts observing a SUT that is about to be built and set up.
func newProbe(tr *tracer, rootName string) *probe {
	p := &probe{tr: tr, root: -1, cur: -1, batchSpan: "core.sut.dobatch"}
	p.heapMB = -liveHeapMB(nil)
	p.wrapAt = now()
	if tr != nil {
		p.root = tr.open(-1, rootName)
	}
	return p
}

// liveHeapMB collects garbage and returns what is left.
func liveHeapMB(ms *runtime.MemStats) float64 {
	if ms == nil {
		ms = new(runtime.MemStats)
	}
	runtime.GC()
	runtime.ReadMemStats(ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ready closes setup: it takes the heap reading the setup_heap_mb metric
// reports — the live heap setup added, so the benchmark's own inputs do not
// drown the SUT — and starts the measured region from a collected heap, so
// one SUT's garbage is not charged to the next one's run.
func (p *probe) ready() {
	var ms runtime.MemStats
	p.heapMB += liveHeapMB(&ms)
	p.mallocs = ms.Mallocs
	if p.counters != nil {
		p.c0 = p.counters()
	}
	p.readyAt = now()
}

// finish closes the measured region.
func (p *probe) finish() {
	p.endAt = now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - p.mallocs
	if p.counters != nil {
		p.c1 = p.counters()
		p.counters = nil // it holds the SUT; the probe outlives the run
	}
	if p.tr != nil {
		p.tr.spans[p.root].end = p.endAt
	}
}

// reserve sizes the series for a run of ops operations in n batches, so that
// they do not grow (and get copied) inside the measured region.
func (p *probe) reserve(n, ops int) {
	p.starts = make([]int64, 0, n)
	p.sutNs = make([]int64, 0, n)
	if p.tr != nil {
		p.fillNs = make([]int64, 0, n)
		p.backendNs = make([]int64, 0, n)
		p.work = make([]int64, 0, ops)
	}
}

// cycles returns the wall time of each dispatch cycle of the measured region:
// from one DoBatch entry to the next, which is the SUT call, the runner's
// pricing and recording of its results, and the fill of the next batch. The
// first cycle begins where setup ended and the last ends with the run, so the
// cycles add up to the measured region.
func (p *probe) cycles() []int64 {
	c := make([]int64, len(p.starts))
	from := p.readyAt
	for i := range c {
		to := p.endAt
		if i+1 < len(p.starts) {
			to = p.starts[i+1]
		}
		c[i], from = to-from, to
	}
	return c
}

// retrainNs is the time of every Train call after the initial one.
func (p *probe) retrainNs() int64 {
	t := p.trainNs
	if p.trainEndsSetup && len(t) > 0 {
		t = t[1:]
	}
	return sumInt64(t)
}

// initialTrainNs is the time of the Train call that closed setup, if any.
func (p *probe) initialTrainNs() int64 {
	if p.trainEndsSetup && len(p.trainNs) > 0 {
		return p.trainNs[0]
	}
	return 0
}

// enter opens a span under the run root and makes it the parent of any
// backend span recorded until leave.
func (p *probe) enter(name string, start int64) {
	if p.tr != nil {
		p.cur = p.tr.add(p.root, name, start, 0)
	}
}

func (p *probe) leave(end int64) {
	if p.tr != nil {
		p.tr.spans[p.cur].end = end
		p.cur = -1
	}
}

// timedSUT forwards a SUT and times the calls the executor makes into it.
type timedSUT struct {
	inner core.BatchSUT
	p     *probe
}

func (t *timedSUT) Name() string { return t.inner.Name() }

func (t *timedSUT) Load(keys, values []uint64) {
	start := now()
	t.p.enter("core.load", start)
	t.inner.Load(keys, values)
	end := now()
	t.p.leave(end)
	t.p.loadNs, t.p.loadedAt = end-start, end
	if !t.p.trainEndsSetup {
		t.p.ready()
	}
}

func (t *timedSUT) Do(op workload.Op) core.OpResult { return t.inner.Do(op) }

func (t *timedSUT) DoBatch(ops []workload.Op, out []core.OpResult) {
	p := t.p
	start := now()
	p.enter(p.batchSpan, start)
	t.inner.DoBatch(ops, out)
	end := now()
	p.leave(end)
	p.starts = append(p.starts, start)
	p.sutNs = append(p.sutNs, end-start)
	p.ops += int64(len(ops))
	for i := range ops {
		p.visited += int64(out[i].Visited)
	}
	if p.tr != nil {
		p.backendNs = append(p.backendNs, p.backend)
		p.backend = 0
		for i := range ops {
			p.work = append(p.work, out[i].Work)
		}
	}
}

// trainPart and onlinePart carry the optional SUT interfaces. wrapSUT
// composes exactly the ones the inner SUT has, because the runner decides
// what to do by type assertion: a wrapper that is Trainable around a SUT
// that is not would make the runner charge a training phase that never ran.
type trainPart struct {
	t core.Trainable
	p *probe
}

func (w trainPart) Train() core.TrainReport {
	p := w.p
	first := len(p.trainNs) == 0 && p.trainEndsSetup
	name := "core.retrain"
	if first {
		name = "core.train"
	}
	start := now()
	p.enter(name, start)
	rep := w.t.Train()
	end := now()
	p.leave(end)
	p.trainNs = append(p.trainNs, end-start)
	if first {
		p.ready()
	}
	return rep
}

type onlinePart struct{ o core.OnlineLearner }

func (w onlinePart) OnlineTrainWork() int64 { return w.o.OnlineTrainWork() }

// wrapSUT returns s behind a timedSUT exposing the same optional interfaces
// as s. trainBefore is the scenario's TrainBefore flag.
func wrapSUT(s core.SUT, p *probe, trainBefore bool) core.SUT {
	base := &timedSUT{inner: core.AsBatch(s), p: p}
	tr, isTr := s.(core.Trainable)
	ol, isOl := s.(core.OnlineLearner)
	p.trainEndsSetup = trainBefore && isTr
	switch {
	case isTr && isOl:
		return struct {
			*timedSUT
			trainPart
			onlinePart
		}{base, trainPart{tr, p}, onlinePart{ol}}
	case isTr:
		return struct {
			*timedSUT
			trainPart
		}{base, trainPart{tr, p}}
	case isOl:
		return struct {
			*timedSUT
			onlinePart
		}{base, onlinePart{ol}}
	}
	return base
}

// timedSource forwards a phase's Source and times its Fill calls. Only the
// traced pass uses it: the end-to-end pass hands the runner the bare source.
type timedSource struct {
	workload.Source
	p *probe
}

func (s timedSource) Fill(ops []workload.Op, gaps []int64, pos, total int) int {
	start := now()
	n := s.Source.Fill(ops, gaps, pos, total)
	end := now()
	s.p.tr.add(s.p.root, "workload.fill", start, end)
	s.p.fillNs = append(s.p.fillNs, end-start)
	return n
}

// traceSource wraps src for the traced pass and returns it bare otherwise.
func (p *probe) traceSource(src workload.Source) workload.Source {
	if p.tr == nil {
		return src
	}
	return timedSource{src, p}
}

// gapSource measures, per driver worker, the wall time between one Fill
// returning and the next being called — the worker's whole turn-around for
// one dispatch: waiting for the driver's lock, the round trip, and result
// bookkeeping. It is the per-op latency of driver.Run as seen from the one
// seam the driver exposes, read from raw samples (driver.Result.Latency is
// bucketed to 6 %). turn is the same plus the Fill before it: the time from
// one op of the worker to its next.
type gapSource struct {
	workload.Source
	called, filled int64 // the last Fill's entry and return
	lat, turn      []int64
}

func (g *gapSource) Fill(ops []workload.Op, gaps []int64, pos, total int) int {
	t := now()
	if g.filled != 0 {
		g.lat = append(g.lat, t-g.filled)
		g.turn = append(g.turn, t-g.called)
	}
	g.called = t
	n := g.Source.Fill(ops, gaps, pos, total)
	g.filled = now()
	return n
}

// timedBackend forwards a pager.Backend and records its reads, writes and
// syncs as children of whichever SUT call is open.
type timedBackend struct {
	pager.Backend
	p *probe
}

func (b *timedBackend) record(name string, start int64) {
	end := now()
	p := b.p
	if p.readyAt != 0 {
		p.backend += end - start
	}
	if p.tr != nil && p.cur >= 0 {
		p.tr.add(p.cur, name, start, end)
	}
}

func (b *timedBackend) ReadAt(buf []byte, off int64) (int, error) {
	start := now()
	n, err := b.Backend.ReadAt(buf, off)
	b.record("pager.backend.read", start)
	return n, err
}

func (b *timedBackend) WriteAt(buf []byte, off int64) (int, error) {
	start := now()
	n, err := b.Backend.WriteAt(buf, off)
	b.record("pager.backend.write", start)
	return n, err
}

func (b *timedBackend) Sync() error {
	start := now()
	err := b.Backend.Sync()
	b.record("pager.backend.sync", start)
	return err
}

// serverSUT is what the netdriver.Serve factory hands out in the traced
// pass: the real SUT with each DoBatch timed on the server's goroutine. The
// connection is serialised, so the nth call here is the nth round trip the
// client made; the spans are matched up after the server has closed.
type serverSUT struct {
	core.BatchSUT
	calls *[][2]int64
}

func (s serverSUT) DoBatch(ops []workload.Op, out []core.OpResult) {
	start := now()
	s.BatchSUT.DoBatch(ops, out)
	*s.calls = append(*s.calls, [2]int64{start, now()})
}
