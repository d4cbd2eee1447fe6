// Command lstrace works with binary workload traces (.lstrace): the
// record → inspect → score → fit → synthesize flywheel around the
// benchmark's trace format — the paper's §V-C synthesizer and quality
// tool.
//
// Usage:
//
//	lstrace record -config scenario.json -o run.lstrace
//	    materialize the scenario and write down the exact op stream every
//	    run of it issues (no SUT runs: the stream is decided before one does)
//	lstrace inspect run.lstrace
//	    print the trace's header, phase layout, op mix, and gap summary
//	lstrace score run.lstrace
//	    score the trace's keys and gaps for benchmark suitability
//	    (skew, shape, drift, load), per phase and for the whole trace
//	lstrace fit run.lstrace
//	    fit the trace's statistics — op mix, gap buckets, and per-segment
//	    key sketches — and print them as JSON, the shareable model
//	lstrace synth -from run.lstrace -n 100000 -o synthetic.lstrace
//	    [-seed s] [-repeat-frac f]
//	    fit the trace and write a statistically equivalent synthetic
//	    trace, optionally with added temporal locality
//	lstrace import -o run.lstrace [-name n] [-seed s] ycsb.log
//	    convert a YCSB operation log (READ/INSERT/UPDATE/SCAN/DELETE
//	    lines) into a single-phase .lstrace ("-" reads stdin)
//
// A recorded trace replayed through the runner (lsbench -replay)
// reproduces the recorded run's result JSON byte-for-byte; a synthetic
// trace preserves the source's key popularity and its drift across the
// recorded phases, the op mix, and the inter-arrival distribution without
// exposing the original stream.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/quality"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "score":
		cmdScore(os.Args[2:])
	case "fit":
		cmdFit(os.Args[2:])
	case "synth":
		cmdSynth(os.Args[2:])
	case "import":
		cmdImport(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lstrace record|inspect|score|fit|synth|import [flags] (see go doc for details)")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lstrace:", err)
	os.Exit(1)
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	configPath := fs.String("config", "", "scenario JSON config to materialize")
	out := fs.String("o", "", "trace file to write")
	fs.Parse(args)
	if *configPath == "" || *out == "" {
		fatal(fmt.Errorf("record needs -config and -o"))
	}
	scenario, err := config.Load(*configPath)
	if err != nil {
		fatal(err)
	}
	tr, err := scenario.Materialize().Trace()
	if err == nil {
		err = tr.WriteFile(*out)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d ops (%d phases) to %s\n", tr.TotalOps(), len(tr.Phases), *out)
}

func cmdInspect(args []string) {
	tr := readOne(flag.NewFlagSet("inspect", flag.ExitOnError), args)
	fmt.Printf("trace %q (seed %d): %d phases, %d ops", tr.Name, tr.Seed, len(tr.Phases), tr.TotalOps())
	if tr.Truncated {
		fmt.Print(" [TORN TAIL: trailing block(s) dropped]")
	}
	fmt.Println()
	for _, ph := range tr.Phases {
		var mix [4]int
		var gapSum int64
		for _, op := range ph.Ops {
			mix[op.Type]++
		}
		for _, g := range ph.Gaps {
			gapSum += g
		}
		meanGap := int64(0)
		if len(ph.Gaps) > 0 {
			meanGap = gapSum / int64(len(ph.Gaps))
		}
		fmt.Printf("  phase %d %q: %d ops (declared %d)  get=%d put=%d del=%d scan=%d  mean gap %dns\n",
			ph.Index, ph.Name, len(ph.Ops), ph.DeclaredOps,
			mix[workload.Get], mix[workload.Put], mix[workload.Delete], mix[workload.Scan], meanGap)
	}
}

// readOne parses a subcommand's flags and reads its one trace argument.
func readOne(fs *flag.FlagSet, args []string) *workload.Trace {
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("%s needs exactly one trace file", fs.Name()))
	}
	tr, err := workload.ReadTraceFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	return tr
}

func cmdScore(args []string) {
	tr := readOne(flag.NewFlagSet("score", flag.ExitOnError), args)
	var keys []uint64
	var gaps []int64
	for _, ph := range tr.Phases {
		phKeys := make([]uint64, len(ph.Ops))
		for i, op := range ph.Ops {
			phKeys[i] = op.Key
		}
		printScore(fmt.Sprintf("phase %d %q", ph.Index, ph.Name), quality.Score(phKeys, ph.Gaps))
		keys = append(keys, phKeys...)
		gaps = append(gaps, ph.Gaps...)
	}
	printScore("trace", quality.Score(keys, gaps))
}

func printScore(name string, r quality.Report) {
	fmt.Printf("%-24s skew=%.2f shape=%.2f drift=%.2f load=%.2f overall=%.2f — %s\n",
		name, r.SkewScore, r.ShapeScore, r.DriftScore, r.LoadScore, r.Overall, quality.Grade(r.Overall))
}

func cmdFit(args []string) {
	tr := readOne(flag.NewFlagSet("fit", flag.ExitOnError), args)
	if err := workload.FitTrace(tr, workload.FitOptions{}).Write(os.Stdout); err != nil {
		fatal(err)
	}
}

func cmdSynth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	from := fs.String("from", "", "trace file to fit")
	out := fs.String("o", "", "synthetic trace file to write")
	n := fs.Int("n", 100_000, "ops to synthesize")
	seed := fs.Uint64("seed", 1, "synthesizer seed")
	repeatFrac := fs.Float64("repeat-frac", 0, "fraction of keys re-drawn from the recently issued window [0,1)")
	fs.Parse(args)
	if *from == "" || *out == "" {
		fatal(fmt.Errorf("synth needs -from and -o"))
	}
	if *n <= 0 {
		fatal(fmt.Errorf("-n must be positive"))
	}
	if *repeatFrac < 0 || *repeatFrac >= 1 {
		fatal(fmt.Errorf("-repeat-frac %v outside [0,1)", *repeatFrac))
	}
	tr, err := workload.ReadTraceFile(*from)
	if err != nil {
		fatal(err)
	}
	st := workload.FitTrace(tr, workload.FitOptions{})
	if st.Ops == 0 {
		fatal(fmt.Errorf("%s is empty, nothing to fit", *from))
	}
	synth := workload.NewSynthesizer(st, *seed, *repeatFrac)

	err = workload.RecordTraceFile(*out, tr.Name+"-synth", *seed, func(tw *workload.TraceWriter) error {
		tw.BeginPhase(0, "synth", *n)
		const chunk = 4096
		ops := make([]workload.Op, chunk)
		gaps := make([]int64, chunk)
		for i := 0; i < *n; i += chunk {
			bn := chunk
			if rest := *n - i; bn > rest {
				bn = rest
			}
			synth.Fill(ops[:bn], gaps[:bn], i, *n)
			tw.Append(ops[:bn], gaps[:bn])
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("synthesized %d ops from %s (repeat-frac %.2f) to %s\n", *n, *from, *repeatFrac, *out)
}

func cmdImport(args []string) {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	out := fs.String("o", "", "trace file to write")
	name := fs.String("name", "ycsb-import", "trace name recorded in the header")
	seed := fs.Uint64("seed", 0, "seed recorded in the header (imports have none of their own)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		fatal(fmt.Errorf("import needs -o and exactly one YCSB log file (or -)"))
	}
	in := os.Stdin
	if fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	ops, err := workload.ImportYCSB(in)
	if err != nil {
		fatal(err)
	}
	err = (&workload.Trace{Name: *name, Seed: *seed, Phases: []workload.TracePhase{
		{Name: "import", DeclaredOps: len(ops), Ops: ops}}}).WriteFile(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("imported %d YCSB ops to %s\n", len(ops), *out)
}
