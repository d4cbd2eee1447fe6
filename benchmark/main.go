// Command benchmark is the repository's performance benchmark: four
// end-to-end workloads over the virtual-clock, disk and wire paths of
// LSBench, each checked against an oracle, plus a traced pass that times
// every layer from outside. README.md in this directory describes the
// workloads, the metrics and how they interact; BENCHMARK.json at the
// repository root declares them.
//
//	go run ./benchmark                      # whole suite, both passes
//	go run ./benchmark -workload mem-point -seed 3 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// workloadDef is one workload of the suite; README.md and BENCHMARK.json say
// why each is there.
type workloadDef struct {
	name string
	run  func(config) (*passResult, error)
}

var workloads = []workloadDef{
	{"mem-point", runMemPoint},
	{"mem-drift", runMemDrift},
	{"disk-cold", runDiskCold},
	{"wire-rt", runWireRT},
}

// onOff is a three-state flag: unset, or a boolean given as 0/1/true/false.
// It is deliberately not a flag.boolFlag so that "-trace 0" parses.
type onOff struct{ set, on bool }

func (f *onOff) String() string { return fmt.Sprint(f.on) }

func (f *onOff) Set(s string) error {
	switch strings.ToLower(s) {
	case "1", "true":
		f.set, f.on = true, true
	case "0", "false":
		f.set, f.on = true, false
	default:
		return fmt.Errorf("want 0, 1, true or false")
	}
	return nil
}

// outcome is what one invocation learned about one workload.
type outcome struct {
	def     workloadDef
	e2e     *passResult // nil when only the traced pass ran
	traced  *passResult // nil when only the end-to-end pass ran
	correct bool
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

// run is main with an exit status, so that deferred clean-up happens.
func run() int {
	var trace onOff
	seed := flag.Uint64("seed", 1, "seed every generator seed derives from")
	only := flag.String("workload", "", "run one workload (default: all four)")
	seconds := flag.Float64("seconds", refSeconds, "measured-region length the op counts are scaled to")
	repeat := flag.Int("repeat", 1, "run everything N times and compare the repeats against the bounds")
	spinMode := flag.Bool("spin", false, "internal: be one of keepAwake's busy loops")
	flag.Var(&trace, "trace", "0: end-to-end pass only; 1: traced pass only (quarter size: untraced, traced, untraced); unset: both")
	flag.Parse()
	if *spinMode {
		return spin()
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		return 2
	}

	selected := workloads
	if *only != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *only)
			return 2
		}
	}

	stop, err := keepAwake()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: measuring on an idling machine: %v\n", err)
	}
	defer stop()

	env := environment()
	env["idle_spinners"] = err == nil
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	ok := true
	var repeats [][]outcome
	for r := 0; r < *repeat; r++ {
		var outs []outcome
		for _, w := range selected {
			o, err := runWorkload(w, *seed, *seconds, trace, filepath.Join("benchmark", "out"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			report(o)
			ok = ok && o.correct
			outs = append(outs, o)
		}
		repeats = append(repeats, outs)
	}
	if *repeat > 1 {
		ok = compareRepeats(repeats) && ok
	}

	// The last line is the machine-readable result: one object for a single
	// workload, one object per workload name for the suite.
	last := repeats[len(repeats)-1]
	var line []byte
	if *only != "" {
		line, _ = json.Marshal(last[0].result())
	} else {
		all := map[string]jsonResult{}
		for _, o := range last {
			all[o.def.name] = o.result()
		}
		line, _ = json.Marshal(all)
	}
	fmt.Printf("%s\n", line)
	if !ok {
		return 1
	}
	return 0
}

// runWorkload makes the passes the trace flag asks for.
func runWorkload(w workloadDef, seed uint64, seconds float64, trace onOff, outDir string) (outcome, error) {
	o := outcome{def: w}
	var err error
	if !trace.set || !trace.on {
		if o.e2e, err = w.run(config{seed: seed, seconds: seconds, shrink: 1}); err != nil {
			return o, err
		}
	}
	if !trace.set || trace.on {
		if o.traced, err = tracedPass(w, config{seed: seed, seconds: seconds / 4, shrink: 1}, outDir); err != nil {
			return o, err
		}
	}
	o.correct = true
	for _, pr := range []*passResult{o.e2e, o.traced} {
		if pr != nil && (len(pr.problems) > 0 || pr.failed > 0) {
			o.correct = false
		}
	}
	return o, nil
}

// tracedPass runs the workload three times at the same size — wrappers
// recording nothing, recording spans, recording nothing — so that the virtual
// results can be compared bit for bit and the cost of tracing is itself
// measured. The untraced runs bracket the traced one because this box's speed
// drifts by more than the overhead within a minute; their mean cancels a
// steady drift. (wire-rt, whose speed shifts faster than that, pairs traced
// and untraced segments inside its traced run and reports the overhead
// itself.) The returned result is the traced run's, with the layer metrics
// derived.
func tracedPass(w workloadDef, c config, outDir string) (*passResult, error) {
	before, err := w.run(c)
	if err != nil {
		return nil, err
	}
	traced := c
	traced.tracer = &tracer{}
	pr, err := w.run(traced)
	if err != nil {
		return nil, err
	}
	after, err := w.run(c)
	if err != nil {
		return nil, err
	}
	pr.finishLayers()
	for _, plain := range []*passResult{before, after} {
		pr.problems = append(pr.problems, plain.problems...)
		pr.failed += plain.failed
		if plain.digest != pr.digest {
			pr.problems = append(pr.problems, fmt.Sprintf("%s: virt_digest %016x untraced, %016x traced: the wrappers changed a virtual result",
				w.name, plain.digest.h, pr.digest.h))
		}
	}
	if _, paired := pr.layer["trace.overhead_frac"]; !paired { // wire-rt pairs its own segments
		pr.layer["trace.overhead_frac"] = 1 - 2*pr.e2e[mOps]/(before.e2e[mOps]+after.e2e[mOps])
	}
	if err := checkSpans(traced.tracer.spans); err != nil {
		pr.problems = append(pr.problems, w.name+": trace: "+err.Error())
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), traced.tracer.spans); err != nil {
		return nil, err
	}
	return pr, nil
}

// result is the machine-readable form of an outcome: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1, both otherwise.
func (o outcome) result() jsonResult {
	res := jsonResult{Correct: o.correct, Metrics: map[string]jsonMetric{}}
	if o.e2e != nil {
		res.Attempted, res.Failed = o.e2e.attempted, o.e2e.failed
		for i, v := range o.e2e.e2e {
			res.Metrics[e2eDefs[i].Name] = jsonMetric{v, e2eDefs[i].Unit}
		}
	}
	if o.traced != nil {
		if o.e2e == nil {
			res.Attempted, res.Failed = o.traced.attempted, o.traced.failed
		}
		for _, d := range layerDefs() {
			res.Metrics[d.Name] = jsonMetric{o.traced.layer[d.Name], d.Unit}
		}
	}
	return res
}

// report prints an outcome for a reader.
func report(o outcome) {
	if pr := o.e2e; pr != nil {
		fmt.Printf("\n== %s  seed=%d  end-to-end pass  virt_digest=%016x\n", pr.workload, pr.c.seed, pr.digest.h)
		for i, d := range e2eDefs {
			fmt.Printf("  %-16s %14.4f %-4s %s\n", d.Name, pr.e2e[i], d.Unit, pr.notes[i])
		}
		fmt.Printf("  %-16s %14.6f      %d failed of %d attempted\n", "failed_frac",
			ratio(float64(pr.failed), float64(pr.attempted)), pr.failed, pr.attempted)
	}
	if pr := o.traced; pr != nil {
		fmt.Printf("\n== %s  seed=%d  traced pass (quarter size)  virt_digest=%016x  attempted=%d\n",
			pr.workload, pr.c.seed, pr.digest.h, pr.attempted)
		for _, d := range layerDefs() {
			if v, ok := pr.layer[d.Name]; ok {
				fmt.Printf("  %-44s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	for _, pr := range []*passResult{o.e2e, o.traced} {
		if pr == nil {
			continue
		}
		for _, p := range pr.problems {
			fmt.Fprintf(os.Stderr, "benchmark: MISMATCH %s\n", p)
		}
		if pr.failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed\n", pr.workload, pr.failed, pr.attempted)
		}
	}
}

// quartileNote describes a sample the way the report prints it beside the
// figure built from it: its size, median and quartiles.
func quartileNote(v []float64, what string) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%d %s: median %.4f, q1 %.4f, q3 %.4f", len(v), what, med, q1, q3)
}

// exactLayers are the layer metrics made only of counts the program keeps:
// they must repeat exactly between runs of one seed.
var exactLayers = []string{"core.batch_calls_per_op", "index.compares_per_op.", "index.model_err_per_search.",
	"index.splits_per_kop.", "index.online_train_work_per_op.", "sim.virtual_ns_per_op.", "pager.hit_ratio.",
	"pager.pages_", "pager.evictions_per_op.", "pager.fsyncs_per_kop.", "kv.flushes", "kv.compact", "kv.runs", "kv.bloom"}

// compareRepeats prints, for every workload and end-to-end metric, by what
// share of the first repeat each later repeat is worse, next to the metric's
// bound, and checks that digests and exact counts did not move at all. It
// reports whether everything stayed within bounds.
func compareRepeats(repeats [][]outcome) bool {
	ok := true
	fmt.Printf("\n== repeats: worst change against the first repeat (positive = worse), and the bound\n")
	for wi, first := range repeats[0] {
		for _, later := range repeats[1:] {
			o := later[wi]
			if first.e2e != nil {
				a, b := first.e2e.e2e, o.e2e.e2e
				for i, d := range e2eDefs {
					worse := (b[i] - a[i]) / a[i]
					if d.Better == "higher" {
						worse = -worse
					}
					verdict := "ok"
					if worse > d.Bound {
						verdict, ok = "BEYOND BOUND", false
					}
					fmt.Printf("  %-10s %-14s %+8.4f  bound %.2f  %s\n", first.def.name, d.Name, worse, d.Bound, verdict)
				}
				if first.e2e.digest != o.e2e.digest {
					fmt.Printf("  %-10s virt_digest differs between repeats\n", first.def.name)
					ok = false
				}
			}
			if first.traced != nil {
				for _, d := range layerDefs() {
					a, b := first.traced.layer[d.Name], o.traced.layer[d.Name]
					isExact := slices.ContainsFunc(exactLayers, func(prefix string) bool { return strings.HasPrefix(d.Name, prefix) })
					if isExact && math.Float64bits(a) != math.Float64bits(b) {
						fmt.Printf("  %-10s %s is a count and moved: %v then %v\n", first.def.name, d.Name, a, b)
						ok = false
					}
				}
			}
		}
	}
	return ok
}

// environment describes the machine and build, so that numbers from
// different boxes are never compared by accident.
func environment() map[string]any {
	env := map[string]any{
		"cpu":        "unknown",
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, found := strings.Cut(line, ":"); found && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, found := debug.ReadBuildInfo(); found {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}
