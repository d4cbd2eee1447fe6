// Synthesize: the §V-C data-sharing pipeline end to end. A "production"
// operator records a drifting key trace it cannot publish, fits the
// workload synthesizer to it (optionally anonymizing hot-key identities),
// ships the compact model, and the benchmark side regenerates a
// statistically equivalent trace — verified with the benchmark's own Φ
// estimator and quality scorer — then benchmarks against the replica.
//
//	go run ./examples/synthesize
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/quality"
	"repro/internal/similarity"
	"repro/internal/synth"
	"repro/internal/workload"
)

func main() {
	// --- Production side ---------------------------------------------
	const n = 60_000
	drift := distgen.NewSchedule(
		distgen.Static{G: distgen.NewZipfKeys(1, 1.2, 1<<20)},
		distgen.NewBlend(2,
			distgen.NewZipfKeys(3, 1.2, 1<<20),
			distgen.NewClustered(4, 12, 1e10)),
	)
	orig := make([]uint64, n)
	for i := range orig {
		drift.FillAt(float64(i)/n, orig[i:i+1])
	}
	model, err := synth.Fit(orig, synth.FitOptions{RemapSeed: 42}) // anonymized
	must(err)

	var wire bytes.Buffer
	must(model.Write(&wire))
	fmt.Printf("recorded %d keys; shareable model is %d bytes (%.1fx smaller)\n",
		n, wire.Len(), float64(n*8)/float64(wire.Len()))

	// --- Benchmark side ----------------------------------------------
	received, err := synth.Read(&wire)
	must(err)
	replica := received.Generate(n, 7)

	fmt.Printf("fidelity: KS(original, replica) = %.4f\n", similarity.KS(orig, replica))
	oq, rq := quality.Score(orig, nil), quality.Score(replica, nil)
	fmt.Printf("quality:  original %s\n          replica  %s\n", oq, rq)

	// Benchmark against the replica trace.
	scenario := core.Scenario{
		Name:        "replica-benchmark",
		Seed:        11,
		InitialData: distgen.NewZipfKeys(12, 1.2, 1<<20),
		InitialSize: 30_000,
		TrainBefore: true,
		IntervalNs:  500_000,
		Phases: []core.Phase{{
			Name: "replay",
			Ops:  n,
			Workload: workload.Spec{
				Mix:    workload.ReadHeavy,
				Access: distgen.NewReplay(replica),
			},
		}},
	}
	for _, f := range []func() core.SUT{core.NewRMISUT, core.NewBTreeSUT} {
		res, err := core.NewRunner().Run(scenario, f())
		must(err)
		fmt.Printf("benchmark on replica: %-6s %.0f ops/s (p99 %dns)\n",
			res.SUT, res.Throughput(), res.Latency.Quantile(0.99))
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
