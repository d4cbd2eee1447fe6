package lsbench_test

// Cross-module integration tests: each exercises a full pipeline the way a
// downstream user would (config -> runner -> report; record -> synthesize
// -> score -> benchmark; network driver end to end), asserting behaviours
// no single package test can see.

import (
	"strings"
	"testing"

	lsbench "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/netdriver"
	"repro/internal/quality"
	"repro/internal/report"
	"repro/internal/similarity"
	"repro/internal/synth"
	"repro/internal/workload"
)

// TestConfigToReportPipeline runs a JSON-configured drift scenario through
// the runner and renders every report artifact.
func TestConfigToReportPipeline(t *testing.T) {
	doc := `{
	  "name": "integration",
	  "seed": 5,
	  "initialData": {"kind": "segmented", "segments": 12},
	  "initialSize": 8000,
	  "trainBefore": true,
	  "intervalNs": 200000,
	  "phases": [
	    {"name": "a", "ops": 4000,
	     "mix": {"get": 0.9, "put": 0.1},
	     "access": {"kind": "static", "gen": {"kind": "segmented", "segments": 12}}},
	    {"name": "b", "ops": 4000,
	     "mix": {"get": 0.4, "put": 0.6},
	     "access": {"kind": "growskew", "maxTheta": 1.3},
	     "arrival": {"kind": "bursty", "rate": 400000}}
	  ]
	}`
	scenario, err := config.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	results, err := lsbench.NewRunner().RunAll(scenario, lsbench.StandardSUTs())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	labels := make([]string, len(results))
	curves := make([]*metrics.CumCurve, len(results))
	for i, r := range results {
		labels[i] = r.SUT
		curves[i] = r.Cumulative
		report.BandChart(&sb, r.SUT, r.Bands, 8)
	}
	report.CumulativePlot(&sb, "integration", labels, curves, 80, 12)
	out := sb.String()
	for _, want := range []string{"btree", "rmi", "alex", "hash", "violation rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestRecordSynthesizeBenchmark closes the §V-C loop: record a drifting
// trace, synthesize an equivalent one, verify the quality tool and the Φ
// estimator agree the two are interchangeable, then benchmark against the
// synthetic trace as the access distribution.
func TestRecordSynthesizeBenchmark(t *testing.T) {
	// 1. "Production" trace.
	drift := distgen.NewBlend(7,
		distgen.NewUniform(8, 0, distgen.KeyDomain/8),
		distgen.NewClustered(9, 6, 1e10))
	orig := make([]uint64, 20000)
	for i := range orig {
		orig[i] = distgen.KeysAt(drift, float64(i)/float64(len(orig)), 1)[0]
	}

	// 2. Fit + regenerate.
	model, err := synth.Fit(orig, synth.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syn := model.Generate(len(orig), 10)

	// 3. Interchangeability checks.
	if d := similarity.KS(orig, syn); d > 0.06 {
		t.Fatalf("synthetic trace KS %v too far from original", d)
	}
	oq, sq := quality.Score(orig, nil), quality.Score(syn, nil)
	if diff := oq.Overall - sq.Overall; diff > 0.15 || diff < -0.15 {
		t.Fatalf("quality diverged: %v vs %v", oq.Overall, sq.Overall)
	}

	// 4. Benchmark using the synthetic keys as a replayable trace.
	scenario := core.Scenario{
		Name:        "synthetic-replay",
		Seed:        11,
		InitialData: distgen.NewUniform(12, 0, distgen.KeyDomain),
		InitialSize: 5000,
		IntervalNs:  200_000,
		Phases: []core.Phase{{
			Name: "replay",
			Ops:  len(syn),
			Workload: workload.Spec{
				Mix:    workload.ReadHeavy,
				Access: distgen.NewReplay(syn),
			},
		}},
	}
	res, err := core.NewRunner().Run(scenario, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != int64(len(syn)) {
		t.Fatalf("replay completed %d of %d", res.Completed, len(syn))
	}
}

// TestNetworkDriverMatchesVirtualSemantics runs the same single-phase
// workload against a local SUT (virtual clock) and a remote SUT (real
// clock over TCP, one worker) and checks they agree on every non-timing
// observable — the outcome tallies and the final database — and that both
// results are one type through one marshaller. (That the driver's one
// worker issues the virtual run's phase 0 op for op is internal/driver's
// TestRunSpecStreamsDecidedBeforeStart.)
func TestNetworkDriverMatchesVirtualSemantics(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scenario := func() core.Scenario {
		return core.Scenario{
			Name: "net-vs-virtual", Seed: 15,
			InitialData: distgen.NewUniform(14, 0, 1<<30), InitialSize: 2000,
			Phases: []core.Phase{{Name: "p", Ops: 3000, Workload: workload.Spec{
				Mix:    workload.Balanced,
				Access: distgen.Static{G: distgen.NewUniform(13, 0, 1<<30)},
			}}},
		}
	}

	// Remote, real clock.
	client, err := netdriver.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rs := scenario()
	remote, err := driver.Run(client, rs.Phases[0].Workload, rs.InitialData, rs.InitialSize,
		driver.Options{Workers: 1, Ops: 3000, Seed: rs.Seed})
	if err != nil {
		t.Fatal(err)
	}

	// Local, virtual clock: the same scenario, whose phase 0 is worker 0's
	// stream.
	localSUT := core.NewBTreeSUT()
	local, err := core.NewRunner().Run(scenario(), localSUT)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Completed != 3000 || remote.Outcomes.Found != local.Outcomes.Found ||
		remote.Outcomes.NotFound != local.Outcomes.NotFound {
		t.Fatalf("outcomes diverge: remote %d ops %+v, local %+v", remote.Completed, remote.Outcomes, local.Outcomes)
	}
	remoteScan := client.Do(workload.Op{Type: workload.Scan, Key: 0, ScanLimit: 1 << 30})
	localScan := localSUT.Do(workload.Op{Type: workload.Scan, Key: 0, ScanLimit: 1 << 30})
	if remoteScan.Visited != localScan.Visited {
		t.Fatalf("diverged databases: remote %d keys, local %d keys",
			remoteScan.Visited, localScan.Visited)
	}
	for _, r := range []*core.Result{remote, local} {
		if data, err := report.MarshalResult(r); err != nil || !strings.Contains(string(data), `"completed": 3000`) {
			t.Fatalf("result does not marshal: %v\n%s", err, data)
		}
	}
}

// TestDeterminismAcrossFullPipeline: two complete figure experiments with
// the same seed must produce byte-identical reports.
func TestDeterminismAcrossFullPipeline(t *testing.T) {
	render := func() string {
		scenario := lsbench.Scenario{
			Name:        "det",
			Seed:        77,
			InitialData: lsbench.NewZipfKeys(1, 1.1, 1<<20),
			InitialSize: 5000,
			TrainBefore: true,
			IntervalNs:  200_000,
			Phases: []lsbench.Phase{{
				Name: "p",
				Ops:  5000,
				Workload: lsbench.WorkloadSpec{
					Mix:    lsbench.Balanced,
					Access: lsbench.Static{G: lsbench.NewZipfKeys(2, 1.1, 1<<20)},
				},
				Arrival: lsbench.NewDiurnal(3, 500_000, 0.4, 1),
			}},
		}
		res, err := lsbench.NewRunner().Run(scenario, lsbench.NewALEXSUT())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		report.BandChart(&sb, "det", res.Bands, 8)
		report.CumulativePlot(&sb, "det", []string{res.SUT},
			[]*metrics.CumCurve{res.Cumulative}, 60, 10)
		return sb.String()
	}
	if render() != render() {
		t.Fatal("full pipeline not deterministic")
	}
}
