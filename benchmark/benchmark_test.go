package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/kv"
	"repro/internal/pager"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Fatalf("quartiles of 1..5 = %v %v %v", q1, med, q3)
	}
	if median([]float64{7}) != 7 || median(nil) != 0 {
		t.Fatal("median of one / no values")
	}
}

func TestPercentiles(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{0.5: 50, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", p, got, want)
		}
	}
	for n, want := range map[int]float64{50: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 10_000: 0.999, 1_000_000: 0.9999} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestQuietestCycles: the cycles of a run add up to its measured region, and
// a stall that hits one repetition of a cycle does not reach the figure built
// from the quietest repetitions.
func TestQuietestCycles(t *testing.T) {
	p := &probe{readyAt: 100, starts: []int64{110, 150, 190}, endAt: 260}
	if c := p.cycles(); len(c) != 3 || c[0] != 50 || c[1] != 40 || c[2] != 70 || sumInt64(c) != p.endAt-p.readyAt {
		t.Fatalf("cycles = %v", c)
	}
	if c := (&probe{readyAt: 5, endAt: 9}).cycles(); len(c) != 0 {
		t.Fatalf("a run without batches has cycles %v", c)
	}
	got := quietest([][]int64{{50, 40, 70}, {52, 4000, 71}, {9000, 41, 69}})
	if want := []int64{50, 40, 69}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("quietest = %v, want %v", got, want)
	}
	if quietest(nil) != nil {
		t.Fatal("quietest of nothing")
	}
}

func TestSpanSelfTimeAndChecks(t *testing.T) {
	spans := []span{
		{parent: -1, name: "run", start: 0, end: 100},
		{parent: 0, name: "fill", start: 5, end: 15},
		{parent: 0, name: "dobatch", start: 20, end: 80},
		{parent: 2, name: "read", start: 30, end: 50},
		{parent: 2, name: "write", start: 50, end: 55},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	want := []int64{100 - 10 - 60, 10, 60 - 20 - 5, 20, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got, want[i])
		}
	}
	for name, bad := range map[string][]span{
		"child leaves parent": {{parent: -1, start: 0, end: 10}, {parent: 0, start: 5, end: 11}},
		"siblings overlap":    {{parent: -1, start: 0, end: 10}, {parent: 0, start: 1, end: 5}, {parent: 0, start: 4, end: 8}},
		"ends before start":   {{parent: -1, start: 10, end: 0}},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

// naiveExpect is the map + sorted-slice reference the issue asks for, kept
// deliberately simple; the benchmark's Fenwick model must agree with it.
func naiveExpect(initial []uint64, ops []workload.Op) expectation {
	present := map[uint64]bool{}
	for _, k := range initial {
		present[k] = true
	}
	var e expectation
	for _, op := range ops {
		e.ops++
		switch op.Type {
		case workload.Get:
			e.gets++
			if present[op.Key] {
				e.found++
				e.getHits++
			} else {
				e.notFound++
			}
		case workload.Put:
			present[op.Key] = true
		case workload.Delete:
			if present[op.Key] {
				e.found++
				delete(present, op.Key)
			} else {
				e.notFound++
			}
		case workload.Scan:
			var keys []uint64
			for k := range present {
				if k >= op.Key {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			e.visited += int64(min(len(keys), op.ScanLimit))
		}
	}
	return e
}

// mixedScenario is a 1k-op scenario with every op type over a small key
// range, so puts, deletes and scans keep running into each other.
func mixedScenario() core.Scenario {
	mix := workload.Mix{GetFrac: 0.4, PutFrac: 0.3, DeleteFrac: 0.2, ScanFrac: 0.1, ScanLimit: 7}
	s := core.Scenario{
		Name: "mixed", Seed: 5, TrainBefore: true,
		InitialData: distgen.NewUniform(9, 0, 400), InitialSize: 200,
		Phases: []core.Phase{
			{Name: "a", Ops: 600, Workload: workload.Spec{Mix: mix, Access: distgen.Static{G: distgen.NewUniform(10, 0, 400)}}},
			{Name: "b", Ops: 400, RetrainBefore: true, Arrival: workload.NewPoisson(3, 1e6),
				Workload: workload.Spec{Mix: mix, Access: distgen.Static{G: distgen.NewUniform(11, 0, 400)}}},
		},
	}
	return s.Materialize()
}

func TestOracleOn1kOps(t *testing.T) {
	s := mixedScenario()
	stream := scenarioStream(func() core.Scenario { return s })
	var ops []workload.Op
	stream(func(op workload.Op) { ops = append(ops, op) })
	if len(ops) != 1000 {
		t.Fatalf("stream has %d ops", len(ops))
	}
	want := naiveExpect(s.InitialKeys, ops)
	if got := expect(s.InitialKeys, stream); got != want {
		t.Fatalf("model disagrees with the naive reference:\n got %+v\nwant %+v", got, want)
	}
	if want.visited == 0 || want.found == 0 || want.notFound == 0 {
		t.Fatalf("scenario too tame to test anything: %+v", want)
	}
	for _, def := range memLineup {
		run, err := runOne(config{shrink: 1}, def, "", func(*probe) core.Scenario { return s })
		if err != nil {
			t.Fatal(err)
		}
		if bad := want.check(def.name, run.res.Outcomes, run.p.visited); bad != nil {
			t.Error(bad)
		}
	}
	// The check must be able to fail.
	off := want
	off.found++
	if off.check("x", core.OpOutcomes{Found: want.found, NotFound: want.notFound}, want.visited) == nil {
		t.Error("a wrong found count passed the check")
	}
}

// TestWrapperTransparency: a run behind the benchmark's wrappers must be the
// run the user gets without them. Every virtual field has to match, the
// wrapper has to expose exactly the optional interfaces of what it wraps,
// and the pool of a disk SUT must stay visible to the runner.
func TestWrapperTransparency(t *testing.T) {
	pool := pager.PoolKnobs{Pages: 16, Policy: "lru"}
	suts := map[string]func() core.SUT{
		"btree":      core.NewBTreeSUT,
		"hash":       core.NewHashSUT,
		"rmi":        core.NewRMISUT,
		"alex":       core.NewALEXSUT,
		"kvstore":    core.NewKVSUTDefault,
		"disk-btree": func() core.SUT { return core.NewDiskBTreeSUT(pool) },
		"disk-lsm":   func() core.SUT { return core.NewDiskKVSUT(kv.DefaultKnobs(), pool) },
	}
	s := mixedScenario()
	for name, mk := range suts {
		for _, tr := range []*tracer{nil, {}} {
			r := core.NewRunner()
			r.Batch = dispatchBatch
			bare, err := r.Run(s, mk())
			if err != nil {
				t.Fatal(err)
			}
			p := newProbe(tr, "run")
			r.WrapSUT = func(sut core.SUT, _ sim.Clock) core.SUT { return wrapSUT(sut, p, s.TrainBefore) }
			wrapped, err := r.Run(s, mk())
			if err != nil {
				t.Fatal(err)
			}
			var a, b digest
			a.addResult(bare)
			b.addResult(wrapped)
			if a != b || bare.Retrains != wrapped.Retrains || bare.Models != wrapped.Models {
				t.Errorf("%s (tracing %v): wrapped run differs from bare run", name, tr != nil)
			}
			if (bare.Storage == nil) != (wrapped.Storage == nil) ||
				(bare.Storage != nil && bare.Storage.Counters != wrapped.Storage.Counters) {
				t.Errorf("%s: Result.Storage changed under the wrapper", name)
			}
			if p.ops != 1000 || p.readyAt == 0 {
				t.Errorf("%s: probe saw %d ops, readyAt %d", name, p.ops, p.readyAt)
			}
		}
		inner := mk()
		w := wrapSUT(inner, newProbe(nil, ""), true)
		_, innerTr := inner.(core.Trainable)
		_, wrapTr := w.(core.Trainable)
		_, innerOl := inner.(core.OnlineLearner)
		_, wrapOl := w.(core.OnlineLearner)
		if _, isBatch := w.(core.BatchSUT); !isBatch || innerTr != wrapTr || innerOl != wrapOl {
			t.Errorf("%s: wrapper exposes batch=%v trainable=%v online=%v, inner has trainable=%v online=%v",
				name, isBatch, wrapTr, wrapOl, innerTr, innerOl)
		}
	}
}

// TestSmokeAllWorkloads runs both passes of every workload at a hundredth of
// its size (about a second; five under -race), so tier-1 `go test ./...`
// notices when a change elsewhere in the repository breaks the benchmark.
func TestSmokeAllWorkloads(t *testing.T) {
	known := map[string]bool{}
	for _, d := range layerDefs() {
		known[d.Name] = true
	}
	for _, w := range workloads {
		c := config{seed: 1, seconds: refSeconds, shrink: 100}
		e2e, err := w.run(c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i, v := range e2e.e2e {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, e2eDefs[i].Name, v)
			}
		}
		c.seconds /= 4
		pr, err := tracedPass(w, c, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, p := range append(pr.problems, e2e.problems...) {
			t.Errorf("%s: %s", w.name, p)
		}
		if pr.failed != 0 || pr.attempted == 0 || e2e.failed != 0 {
			t.Errorf("%s: %d/%d failed of %d/%d", w.name, pr.failed, e2e.failed, pr.attempted, e2e.attempted)
		}
		if len(pr.layer) < 5 {
			t.Errorf("%s: only %d layer metrics", w.name, len(pr.layer))
		}
		for name, v := range pr.layer {
			if !known[name] {
				t.Errorf("%s: layer metric %s is not declared in layerDefs", w.name, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, refSeconds = %d", decl.RunSeconds, refSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, implemented %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d implemented", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: declared %+v, implemented %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, e2eDefs)
	same("per_layer", decl.PerLayer, layerDefs())
}
