// Command lsbench runs a benchmark scenario described by a JSON config
// file against one or more systems under test and prints the full report:
// per-phase throughput statistics, the cumulative-completion curve with
// area scores, SLA latency bands with the adjustment-speed metric, and
// training accounting.
//
// Usage:
//
//	lsbench -config scenario.json [-suts btree,rmi,alex,hash,kvstore] [-csv dir]
//	lsbench -example            # print a starter config and exit
//	lsbench -remote host:port   # drive a remote SUT (lsbench serve sut)
//	lsbench serve sut|worker [flags]  # the serving roles (serve.go)
//	lsbench ... -faults spec    # inject a deterministic fault plan
//
// Everything else about a run is in the config document: a controller
// drift clause's "factor" is its intensity D, a "session" clause segments
// interactive sessions with a per-session budget, and a phase's "source"
// clause feeds it from a recording (`lstrace record` writes one):
// {"kind": "trace", "path": ..., "phase": i} replays recorded phase i
// verbatim, so a document that keeps its phases (retrain windows
// included) and gives each one its trace clause reproduces the recorded
// run's report; {"kind": "synth", "path": ..., "repeatFrac": ...} drives
// the phase with load fitted from the recording.
//
// With -remote the scenario — every phase, training windows included — runs
// over TCP on the wall clock; otherwise it runs against the named SUTs on the
// deterministic virtual clock. Both are core.Runner.RunOn and hand a
// core.Result to the same report path, so -csv works under either. The
// wall clock runs every phase closed loop: arrival gaps are not paced (one
// stderr line says so) and a session clause is refused. Training
// happens on the remote SUT and is charged as in process: on the -example
// config against `lsbench serve sut -sut rmi` the row reads train-work 1025,
// online-work 283287 and models 1025, as the virtual `-suts rmi` row does.
//
// -faults takes a fault.ParseSpec schedule, e.g.
// "slow@10ms-30ms:factor=8;crash@50ms;error@70ms-80ms". On the virtual
// clock the windows are in virtual time and results are byte-identical
// per (plan, seed, batch); with -remote they are wall time from run start,
// i.e. from the end of the initial load, like every time in the report
// (wire drop/delay windows apply, and the client retries with capped
// seeded backoff). The report gains a robustness panel per SUT.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/netdriver"
	"repro/internal/pager"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/sim"
)

const exampleConfig = `{
  "name": "drift-demo",
  "seed": 42,
  "initialData": {"kind": "zipf", "theta": 1.1, "universe": 4194304},
  "initialSize": 100000,
  "trainBefore": true,
  "intervalNs": 1000000,
  "phases": [
    {
      "name": "steady",
      "ops": 100000,
      "mix": {"get": 0.95, "put": 0.05},
      "access": {"kind": "static", "gen": {"kind": "zipf", "theta": 1.1, "universe": 4194304}}
    },
    {
      "name": "shift",
      "ops": 100000,
      "mix": {"get": 0.3, "put": 0.7},
      "access": {"kind": "static", "gen": {"kind": "clustered", "clusters": 25}},
      "insertKeys": {"kind": "static", "gen": {"kind": "clustered", "clusters": 25}},
      "arrival": {"kind": "diurnal", "rate": 600000, "amplitude": 0.5, "cycles": 2}
    }
  ]
}`

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lsbench:", err)
		os.Exit(1)
	}
}

// benchMain is `lsbench [flags]`: build the scenario and hand it to
// runScenario.
func benchMain(args []string) error {
	fs := flag.NewFlagSet("lsbench", flag.ExitOnError)
	var (
		configPath = fs.String("config", "", "path to the scenario JSON config")
		suts       = fs.String("suts", "btree,rmi,alex", "comma-separated SUTs: "+strings.Join(core.SUTNames(), ","))
		csvDir     = fs.String("csv", "", "directory to write per-figure CSV files into")
		example    = fs.Bool("example", false, "print an example config and exit")
		remote     = fs.String("remote", "", "address of a netdriver server started by lsbench serve sut: run the scenario against it on the wall clock")
		batch      = fs.Int("batch", 0, "op-dispatch batch size (0/1 = per-op); virtual-clock results are byte-identical at any setting unless a -faults window opens or closes mid-run (windows are read once per batch); with -remote a batch is one round trip and its ops share the round's latency")
		faults     = fs.String("faults", "", "deterministic fault plan (kind@start-end:params;... with kinds slow,error,crash,drop,delay; drop and delay need -remote)")
		poolPages  = fs.Int("pool-pages", 64, "buffer-pool capacity in 4KiB pages for disk-backed SUTs")
		poolPolicy = fs.String("pool-policy", "lru", "buffer-pool eviction policy for disk-backed SUTs: lru, clock, 2q")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Parse(args)

	if *example {
		fmt.Println(exampleConfig)
		return nil
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()
	if *configPath == "" {
		return fmt.Errorf("-config is required (see -example)")
	}
	scenario, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	plan, err := fault.ParseSpec(*faults, scenario.Seed)
	if err == nil && *remote == "" {
		err = plan.CheckInProcess()
	}
	if err != nil {
		return err
	}

	knobs := pager.PoolKnobs{Pages: *poolPages, Policy: *poolPolicy}.Validate()
	return runScenario(scenario, strings.Split(*suts, ","), *remote, *batch, plan, knobs, *csvDir)
}

// runScenario is the one run path: it decides the scenario's streams, runs
// it once per SUT and reports; csvDir is the -csv path ("" for none).
// remote changes the clock (wall instead of virtual), where the SUT comes
// from (one netdriver client instead of the named in-process SUTs) and that
// the scenario is always materialized, so the wall-clock run does not time
// its own generators.
func runScenario(scenario core.Scenario, suts []string, remote string, batch int, plan fault.Plan, knobs pager.PoolKnobs, csvDir string) error {
	if remote != "" {
		if scenario.Session != nil {
			return fmt.Errorf("-remote cannot segment sessions: the wall clock ignores arrival gaps, so the gap of %s that opens a session is never observed (drop the config's session clause, or run on the virtual clock)",
				ns(scenario.Session.GapNs))
		}
		suts = []string{remote} // one run; -suts names in-process SUTs
	}
	// Head-to-head runs must replay identical inputs: stateful generators
	// and arrival processes (drift controllers, session pacers, poisson)
	// would otherwise advance between the per-SUT runs below. Pin the
	// streams once; each run is then a pure replay.
	if len(suts) > 1 || remote != "" {
		scenario = scenario.Materialize()
	}
	if remote != "" && slices.ContainsFunc(scenario.Phases, func(p core.Phase) bool {
		return slices.ContainsFunc(p.Trace.Gaps, func(gap int64) bool { return gap != 0 })
	}) {
		fmt.Fprintln(os.Stderr, "lsbench: arrival gaps are not paced on the wall clock: every phase runs closed loop")
	}

	var results []*core.Result
	var injectors []*fault.Injector
	var retries int64
	for _, name := range suts {
		// One clock, runner and injector per SUT: the injector reads the
		// run's own clock, virtual or wall.
		var clock sim.Clock = &sim.Virtual{}
		if remote != "" {
			clock = sim.NewReal()
		}
		runner := core.NewRunner()
		runner.Batch = batch
		var inj *fault.Injector
		if !plan.Empty() {
			inj = fault.NewInjector(plan, clock)
			runner.WrapSUT = func(s core.SUT, _ sim.Clock) core.SUT { return fault.Wrap(s, inj) }
		}
		var sut core.SUT
		if remote != "" {
			c, err := dial(remote, scenario.Seed, inj)
			if err != nil {
				return err
			}
			defer c.Close()
			sut = c
		} else {
			f, err := core.SUTByName(strings.TrimSpace(name), knobs)
			if err != nil {
				return err
			}
			sut = f()
		}
		res, err := runner.RunOn(clock, scenario, sut)
		if err != nil {
			return err
		}
		if c, ok := sut.(*netdriver.Client); ok {
			if cerr := c.Err(); cerr != nil {
				return fmt.Errorf("remote session failed mid-run (results incomplete): %w", cerr)
			}
			retries = c.Retries()
			fmt.Printf("remote run against %s (wall clock)\n", remote)
		}
		results = append(results, res)
		injectors = append(injectors, inj)
	}
	return printReport(results, injectors, plan, retries, csvDir)
}

// dial connects to the remote SUT. With a fault plan the injector's wire
// windows perturb the client's frames, and retries plus deadlines make
// dropped frames survivable.
func dial(addr string, seed uint64, inj *fault.Injector) (*netdriver.Client, error) {
	opts := netdriver.Options{}
	if inj != nil {
		opts.ReadTimeout = 250 * time.Millisecond
		opts.WriteTimeout = 250 * time.Millisecond
		opts.MaxRetries = 8
		opts.RetrySeed = seed
		opts.WrapConn = func(c net.Conn) net.Conn { return fault.NewConn(c, inj) }
	}
	return netdriver.DialOptions(addr, opts)
}

// printReport is the one report path of both clocks: summary table, Fig
// 1a/1b/1c panels, session and storage digests, CSVs, robustness. injectors
// is parallel to results (nil entries: no fault plan); retries is the remote
// client's retry count (0 on the virtual clock).
func printReport(results []*core.Result, injectors []*fault.Injector, plan fault.Plan, retries int64, csvDir string) error {
	fmt.Printf("scenario: %s\n\n", results[0].Scenario)

	// Summary table.
	header := []string{"sut", "ops/s", "p50", "p99", "max", "sla",
		"viol%", "train-work", "online-work", "models"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.SUT,
			fmt.Sprintf("%.0f", r.Throughput()),
			ns(r.Latency.Quantile(0.5)),
			ns(r.Latency.Quantile(0.99)),
			ns(r.Latency.Max()),
			ns(r.SLANs),
			fmt.Sprintf("%.2f", r.Bands.ViolationRate()*100),
			fmt.Sprintf("%d", r.OfflineTrainWork),
			fmt.Sprintf("%d", r.OnlineTrainWork),
			fmt.Sprintf("%d", r.Models),
		})
	}
	report.Table(os.Stdout, header, rows)
	fmt.Println()

	// Per-phase breakdown (the Figure 1a material).
	for _, r := range results {
		fmt.Printf("%s phases:\n", r.SUT)
		ph := []string{"phase", "ops/s", "completed", "retrain-work"}
		var prows [][]string
		for _, p := range r.Phases {
			prows = append(prows, []string{
				p.Name,
				fmt.Sprintf("%.0f", p.Throughput()),
				fmt.Sprintf("%d", p.Completed),
				fmt.Sprintf("%d", p.RetrainWork),
			})
		}
		report.Table(os.Stdout, ph, prows)
		fmt.Println()
	}

	// Figure 1b.
	labels := make([]string, len(results))
	curves := make([]*metrics.CumCurve, len(results))
	for i, r := range results {
		labels[i] = r.SUT
		curves[i] = r.Cumulative
	}
	report.CumulativePlot(os.Stdout, "cumulative queries over time (Fig 1b)", labels, curves, 100, 16)
	fmt.Println()

	// Figure 1c per SUT.
	for _, r := range results {
		report.BandChart(os.Stdout, fmt.Sprintf("SLA bands — %s (Fig 1c)", r.SUT), r.Bands, 10)
		if len(r.AdjustmentNs) > 0 {
			fmt.Printf("adjustment speed after first change: %s over-SLA\n", ns(r.AdjustmentNs[0]))
		}
		fmt.Println()
	}

	// Interactive-session digest (IDEBench-style per-session SLA).
	haveSessions := false
	for _, r := range results {
		if r.Sessions == nil {
			continue
		}
		if !haveSessions {
			fmt.Println("interactive sessions:")
			haveSessions = true
		}
		ss := r.Sessions
		fmt.Printf("  %-12s %d sessions, %.1f%% met budget %s (%d late ops), makespan p50=%s p99=%s\n",
			r.SUT, ss.Sessions, ss.MetRate()*100, ns(ss.BudgetNs), ss.LateOps,
			ns(ss.Makespan.Quantile(0.5)), ns(ss.Makespan.Quantile(0.99)))
	}
	if haveSessions {
		fmt.Println()
	}

	// Buffer-pool panels for disk-backed SUTs.
	haveStorage := false
	for _, r := range results {
		if r.Storage != nil {
			report.StoragePanel(os.Stdout, fmt.Sprintf("storage — %s (buffer pool)", r.SUT), r.Storage)
			fmt.Println()
			haveStorage = true
		}
	}

	if csvDir != "" {
		files := map[string]func(io.Writer){
			"fig1b.csv": func(w io.Writer) { report.CumulativeCSV(w, labels, curves, 500) },
		}
		if haveStorage {
			files["storage.csv"] = func(w io.Writer) { report.StorageCSV(w, results) }
		}
		for _, r := range results {
			files["fig1c-"+r.SUT+".csv"] = func(w io.Writer) { report.BandCSV(w, r.Bands) }
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		for name, emit := range files {
			f, err := os.Create(filepath.Join(csvDir, name))
			if err != nil {
				return err
			}
			emit(f)
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Printf("CSV series written to %s\n", csvDir)
	}

	// Fig 1e robustness panel (when the plan has an op-fault span to recover
	// from) and the one fault-ledger line, per run that had an injector.
	start, end, hasSpan := plan.OpFaultSpan()
	for i, r := range results {
		inj := injectors[i]
		if inj == nil {
			continue
		}
		if hasSpan {
			report.RobustnessPanel(os.Stdout,
				fmt.Sprintf("robustness — %s under %q (Fig 1e)", r.SUT, plan.String()),
				r.Snapshot, r.Snapshot.Recovery(start, end))
		}
		rep := inj.Report()
		fmt.Printf("  fault ledger        slowed %d, failed %d, crashes %d (retrain work %d), wire drops %d, wire delays %d, client retries %d\n\n",
			rep.SlowedOps, rep.FailedOps, rep.Crashes, rep.CrashRetrainWork, rep.WireDrops, rep.WireDelays, retries)
	}
	return nil
}

// ns renders nanoseconds human-readably.
func ns(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
