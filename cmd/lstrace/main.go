// Command lstrace works with binary workload traces (.lstrace): the
// record → inspect → fit → synthesize flywheel around the benchmark's
// trace format.
//
// Usage:
//
//	lstrace record -config scenario.json -o run.lstrace
//	    materialize the scenario and write down the exact op stream every
//	    run of it issues (no SUT runs: the stream is decided before one does)
//	lstrace inspect run.lstrace
//	    print the trace's header, phase layout, op mix, and gap summary
//	lstrace fit run.lstrace [-topk n] [-buckets n]
//	    fit the trace's statistics and print them as JSON
//	lstrace synth -from run.lstrace -n 100000 -o synthetic.lstrace
//	    [-seed s] [-repeat-frac f] [-topk n] [-buckets n]
//	    fit the trace and write a statistically equivalent synthetic
//	    trace, optionally with added temporal locality
//	lstrace import -o run.lstrace [-name n] [-seed s] ycsb.log
//	    convert a YCSB operation log (READ/INSERT/UPDATE/SCAN/DELETE
//	    lines) into a single-phase .lstrace ("-" reads stdin)
//
// A recorded trace replayed through the runner (lsbench -replay)
// reproduces the recorded run's result JSON byte-for-byte; a synthetic
// trace preserves the source's key popularity, op mix, and inter-arrival
// distribution without exposing the original stream.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
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
	fmt.Fprintln(os.Stderr, "usage: lstrace record|inspect|fit|synth|import [flags] (see go doc for details)")
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
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("inspect needs exactly one trace file"))
	}
	tr, err := workload.ReadTraceFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
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

func cmdFit(args []string) {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	topK := fs.Int("topk", 0, "head keys tracked exactly (0 = default)")
	buckets := fs.Int("buckets", 0, "tail histogram buckets (0 = default)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("fit needs exactly one trace file"))
	}
	tr, err := workload.ReadTraceFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	st := workload.FitTrace(tr, workload.FitOptions{TopK: *topK, TailBuckets: *buckets})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
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
	topK := fs.Int("topk", 0, "head keys tracked exactly (0 = default)")
	buckets := fs.Int("buckets", 0, "tail histogram buckets (0 = default)")
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
	st := workload.FitTrace(tr, workload.FitOptions{TopK: *topK, TailBuckets: *buckets})
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
