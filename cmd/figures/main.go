// Command figures regenerates every evaluation artifact of the paper —
// the four panels of Figure 1 plus the Lesson ablations — printing ASCII
// plots to stdout and, with -csv, the raw data series for external
// plotting. This is the end-to-end reproduction entry point referenced by
// EXPERIMENTS.md.
//
// Panels run concurrently under -parallel (default GOMAXPROCS): each
// panel renders into its own buffer and buffers are flushed in
// declaration order, so stdout and every CSV are byte-identical at any
// parallelism level for the same seed.
//
// Usage:
//
//	figures [-scale small|full] [-seed N] [-only fig1a,...] [-csv dir] [-parallel N] [-faults plan]
//
// An unknown -only key is an error. Fig 1g's drift grid and session pacing
// are figures.Fig1gIntensities and the Fig1gSession* constants.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/report"
)

// panel is one independently runnable artifact of the reproduction.
type panel struct {
	key string
	run func(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error
}

// panels lists every artifact in output order.
func panels() []panel {
	return []panel{
		{"fig1a", runFig1a},
		{"fig1aw", runFig1aWorkload},
		{"fig1b", runFig1b},
		{"fig1c", runFig1c},
		{"fig1d", runFig1d},
		{"fig1e", runFig1e},
		{"fig1f", runFig1f},
		{"fig1g", runFig1g},
		{"lessons", runLessons},
		{"optdrift", runOptDrift},
		{"ablations", runAblations},
	}
}

// panelKeys lists every panel key in output order.
func panelKeys() (keys []string) {
	for _, p := range panels() {
		keys = append(keys, p.key)
	}
	return keys
}

// selectPanels returns the panels named in only, a comma list of keys, in
// output order; "" selects every panel. An unknown key is an error that
// lists the valid ones.
func selectPanels(only string) ([]panel, error) {
	if only == "" {
		return panels(), nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(panelKeys(), k) {
			return nil, fmt.Errorf("unknown panel %q (have: %s)", k, strings.Join(panelKeys(), ","))
		}
		want[k] = true
	}
	return slices.DeleteFunc(panels(), func(p panel) bool { return !want[p.key] }), nil
}

func main() {
	var (
		scaleName  = flag.String("scale", "small", "experiment scale: small or full")
		seed       = flag.Uint64("seed", 42, "base random seed")
		only       = flag.String("only", "", "comma-separated subset: "+strings.Join(panelKeys(), ","))
		csvDir     = flag.String("csv", "", "directory for CSV series")
		parallelN  = flag.Int("parallel", 0, "max concurrent experiment runs (0 = GOMAXPROCS, 1 = serial); output is byte-identical at any setting")
		faults     = flag.String("faults", "", "fig1e fault plan override, e.g. 'slow@2ms-4ms:factor=8;crash@6ms' (default: derived from each SUT's baseline run)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var scale figures.Scale
	switch *scaleName {
	case "small":
		scale = figures.SmallScale()
	case "full":
		scale = figures.FullScale()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	scale.Parallel = *parallelN
	scale.Faults = *faults

	selected, err := selectPanels(*only)
	if err != nil {
		fatal(err)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// Fan the panels out; each renders into its own buffer so stdout
	// stays in declaration order regardless of completion order.
	bufs := make([]bytes.Buffer, len(selected))
	err = par.ForEach(len(selected), *parallelN, func(i int) error {
		return selected[i].run(&bufs[i], scale, *seed, *csvDir)
	})
	for i := range bufs {
		os.Stdout.Write(bufs[i].Bytes())
	}
	if err != nil {
		fatal(err)
	}
}

func runAblations(w io.Writer, scale figures.Scale, seed uint64, _ string) error {
	section(w, "Design-choice ablations (DESIGN.md §5)")

	sla, err := figures.AblationSLA(scale, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "1. SLA threshold source — violation rate: calibrated %.1f%%, 100x-loose %.1f%%, 20x-tight %.1f%%\n",
		sla.CalibratedViolationRate*100, sla.LooseViolationRate*100, sla.TightViolationRate*100)

	phi := figures.AblationPhi(seed)
	fmt.Fprintf(w, "2. Φ estimator choice — KS/MMD pairwise ordering agreement: %.0f%%\n",
		phi.OrderAgreement*100)

	tr, err := figures.AblationTransition(scale, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "3. Transition type — throughput dip: abrupt %.0f%% vs gradual %.0f%%; over-SLA %.3fms vs %.3fms\n",
		tr.AbruptDip*100, tr.GradualDip*100,
		float64(tr.AbruptOverSLA)/1e6, float64(tr.GradualOverSLA)/1e6)

	tp, err := figures.AblationTrainingPlacement(scale, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "4. Training placement — post-shift over-SLA: online %.3fms vs scheduled window %.3fms (window work %d)\n",
		float64(tp.OnlineOverSLA)/1e6, float64(tp.ScheduledOverSLA)/1e6, tp.ScheduledRetrainWork)

	ho, err := figures.AblationHoldout(scale, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "5. Hold-out gap — in/out-of-sample throughput ratio: learned %.2fx vs traditional %.2fx\n\n",
		ho.LearnedGap, ho.TraditionalGap)
	return nil
}

func runFig1a(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1a — throughput per workload/data distribution")
	res, err := figures.Fig1a(scale, seed)
	if err != nil {
		return err
	}
	for _, sut := range report.SortedKeys(res.Rows) {
		report.BoxPlot(w,
			fmt.Sprintf("%s: per-interval throughput by distribution (phi = KS distance from uniform)", sut),
			res.Rows[sut], 64)
		fmt.Fprintln(w)
		if csvDir != "" {
			if err := writeCSV(filepath.Join(csvDir, "fig1a-"+sut+".csv"), func(f *os.File) {
				report.BoxCSV(f, res.Rows[sut])
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func runFig1aWorkload(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1a (workload variant) — throughput per workload, Φ = plan-subtree Jaccard")
	res, err := figures.Fig1aWorkload(scale, seed)
	if err != nil {
		return err
	}
	for _, sut := range report.SortedKeys(res.Rows) {
		report.BoxPlot(w,
			fmt.Sprintf("%s: per-interval query throughput by workload family", sut),
			res.Rows[sut], 64)
		fmt.Fprintln(w)
		if csvDir != "" {
			if err := writeCSV(filepath.Join(csvDir, "fig1a-workload-"+sut+".csv"), func(f *os.File) {
				report.BoxCSV(f, res.Rows[sut])
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func runFig1b(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1b — cumulative queries over time")
	res, err := figures.Fig1b(scale, seed)
	if err != nil {
		return err
	}
	report.CumulativePlot(w, "build-then-serve: learned (rmi) vs traditional (btree)",
		res.Labels, res.Curves, 100, 18)
	fmt.Fprintln(w)
	if csvDir != "" {
		if err := writeCSV(filepath.Join(csvDir, "fig1b.csv"), func(f *os.File) {
			report.CumulativeCSV(f, res.Labels, res.Curves, 500)
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig1c(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1c — SLA violations around a distribution change")
	res, err := figures.Fig1c(scale, seed)
	if err != nil {
		return err
	}
	for _, sut := range report.SortedKeys(res.Bands) {
		report.BandChart(w, "SLA bands — "+sut, res.Bands[sut], 10)
		fmt.Fprintf(w, "adjustment speed (over-SLA time after change): %.3fms; violation rate %.2f%%\n\n",
			float64(res.AdjustmentSpeed[sut])/1e6, res.ViolationRate[sut]*100)
		if csvDir != "" {
			sut := sut
			if err := writeCSV(filepath.Join(csvDir, "fig1c-"+sut+".csv"), func(f *os.File) {
				report.BandCSV(f, res.Bands[sut])
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func runFig1d(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1d — throughput per cost (training vs manual tuning)")
	res, err := figures.Fig1d(scale, seed)
	if err != nil {
		return err
	}
	report.CostPlot(w, "auto-tuned kv store (CPU tier) vs manual DBA",
		res.LearnedCPU, res.Traditional, 80, 16)
	fmt.Fprintln(w)
	report.CostPlot(w, "auto-tuned kv store (GPU tier) vs manual DBA",
		res.LearnedGPU, res.Traditional, 80, 16)
	fmt.Fprintln(w)
	if csvDir != "" {
		if err := writeCSV(filepath.Join(csvDir, "fig1d.csv"), func(f *os.File) {
			report.CostCSV(f, res.LearnedCPU, res.Traditional)
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig1e(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1e — robustness: degradation and recovery under injected faults")
	res, err := figures.Fig1e(scale, seed, scale.Faults)
	if err != nil {
		return err
	}
	for _, sut := range report.SortedKeys(res.Results) {
		r := res.Results[sut]
		rec := res.Recovery[sut]
		rep := res.Reports[sut]
		fmt.Fprintf(w, "%s under %q (baseline %.3fms clean run):\n",
			sut, res.Specs[sut], float64(res.BaselineNs[sut])/1e6)
		report.RobustnessPanel(w, "  robustness", r.Snapshot, rec)
		fmt.Fprintf(w, "  fault ledger        slowed %d, failed %d, crashes %d (retrain work %d)\n\n",
			rep.SlowedOps, rep.FailedOps, rep.Crashes, rep.CrashRetrainWork)
	}
	if csvDir != "" {
		if err := writeCSV(filepath.Join(csvDir, "fig1e.csv"), func(f *os.File) {
			fmt.Fprintln(f, "sut,availability,failed_ops,error_budget_burn,baseline_violation_rate,peak_violation_rate,time_to_recover_ns,recovered,crashes,crash_retrain_work")
			for _, sut := range report.SortedKeys(res.Results) {
				rec := res.Recovery[sut]
				rep := res.Reports[sut]
				fmt.Fprintf(f, "%s,%.6f,%d,%.4f,%.6f,%.6f,%d,%t,%d,%d\n",
					sut, rec.Availability, rec.FailedOps, rec.ErrorBudgetBurn,
					rec.BaselineViolationRate, rec.PeakViolationRate,
					rec.TimeToRecoverNs, rec.Recovered, rep.Crashes, rep.CrashRetrainWork)
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig1f(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1f — storage tier: buffer pool, eviction policy, and compaction")
	res, err := figures.Fig1f(scale, seed)
	if err != nil {
		return err
	}
	figures.RenderFig1f(w, res)
	if csvDir != "" {
		if err := writeCSV(filepath.Join(csvDir, "fig1f.csv"), func(f *os.File) {
			figures.Fig1fCSV(f, res)
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig1g(w io.Writer, scale figures.Scale, seed uint64, csvDir string) error {
	section(w, "Figure 1g — adaptability: the metric quadruple vs drift intensity D")
	res, err := figures.Fig1g(scale, seed)
	if err != nil {
		return err
	}
	figures.RenderFig1g(w, res)
	if csvDir != "" {
		if err := writeCSV(filepath.Join(csvDir, "fig1g.csv"), func(f *os.File) {
			figures.Fig1gCSV(f, res)
		}); err != nil {
			return err
		}
	}
	return nil
}

func runLessons(w io.Writer, scale figures.Scale, seed uint64, _ string) error {
	section(w, "Lesson ablations")
	l1, err := figures.Lesson1(scale, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Lesson 1 (fixed workloads are easy to learn):\n")
	fmt.Fprintf(w, "  learned/traditional throughput ratio: fixed %.2fx -> drifting %.2fx\n\n",
		l1.FixedRatio, l1.DriftRatio)

	l2, err := figures.Lesson2(scale, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Lesson 2 (averages hide adaptability):\n")
	fmt.Fprintf(w, "  %s: mean %.0f ops/s, p99 latency %dns\n", l2.NameA, l2.MeanA, l2.P99LatencyA)
	fmt.Fprintf(w, "  %s: mean %.0f ops/s, p99 latency %dns\n", l2.NameB, l2.MeanB, l2.P99LatencyB)
	fmt.Fprintf(w, "  means differ %.1f%%; p99 latencies differ %.1fx\n\n",
		l2.MeanGapFraction*100, l2.TailRatio)

	l3, err := figures.Lesson3(scale, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Lesson 3 (training is a first-class result):\n")
	fmt.Fprintf(w, "  training %.3fms; learned %.0fns/op vs traditional %.0fns/op\n",
		float64(l3.TrainNs)/1e6, l3.LearnedOpNs, l3.TraditionalOpNs)
	fmt.Fprintf(w, "  break-even after %.0f queries\n\n", l3.BreakEvenQueries)

	fig, err := figures.Fig1d(scale, seed)
	if err != nil {
		return err
	}
	l4 := figures.Lesson4(fig)
	fmt.Fprintf(w, "Lesson 4 (human cost matters):\n")
	fmt.Fprintf(w, "  machine-only TCO: learned $%.0f vs DBA $%.0f\n", l4.MachineOnlyLearned, l4.MachineOnlyDBA)
	fmt.Fprintf(w, "  with $120/h DBA:  learned $%.0f vs DBA $%.0f\n\n", l4.FullLearned, l4.FullDBA)
	return nil
}

func runOptDrift(w io.Writer, scale figures.Scale, seed uint64, _ string) error {
	section(w, "Extension — learned query optimizer under data drift")
	res, err := figures.OptDrift(scale, seed)
	if err != nil {
		return err
	}
	labels := make([]string, 0, len(res.Results))
	curves := make([]*metrics.CumCurve, 0, len(res.Results))
	for _, name := range report.SortedKeys(res.Results) {
		r := res.Results[name]
		labels = append(labels, name)
		curves = append(curves, r.Cumulative)
		fmt.Fprintf(w, "%-18s %.0f q/s, train work %d, over-SLA after drift %.3fms\n",
			name, r.Throughput(), r.OnlineTrainWork, float64(res.AdjustmentSpeed[name])/1e6)
	}
	fmt.Fprintln(w)
	report.CumulativePlot(w, "cumulative queries (drift at midpoint)", labels, curves, 100, 14)
	fmt.Fprintln(w)
	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
}

func writeCSV(path string, emit func(*os.File)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	emit(f)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
