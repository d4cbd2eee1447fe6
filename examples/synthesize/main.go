// Synthesize: the §V-C data-sharing pipeline end to end. A "production"
// operator records a drifting workload it cannot publish, fits the
// workload synthesizer to it (anonymizing hot-key identities), ships the
// compact JSON model, and the benchmark side reads it back, synthesizes a
// statistically equivalent stream — verified with the benchmark's own Φ
// estimator and quality scorer — then benchmarks against the replica.
//
//	go run ./examples/synthesize
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/quality"
	"repro/internal/similarity"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// --- Production side ---------------------------------------------
	const n = 60_000
	drift := distgen.NewSchedule(
		distgen.Static{G: distgen.NewZipfKeys(1, 1.2, 1<<20)},
		distgen.NewBlend(2,
			distgen.NewZipfKeys(3, 1.2, 1<<20),
			distgen.NewClustered(4, 12, 1e10)),
	)
	orig := make([]workload.Op, n)
	gaps := make([]int64, n)
	workload.NewSource(workload.Spec{Mix: workload.ReadHeavy, Access: drift}, nil, 5).Fill(orig, gaps, 0, n)
	model := workload.FitStream(orig, gaps, workload.FitOptions{RemapSeed: 42}) // anonymized

	var wire bytes.Buffer
	if err := model.Write(&wire); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d ops; shareable model is %d segments, %d bytes of JSON\n",
		n, len(model.Segments), wire.Len())

	// --- Benchmark side ----------------------------------------------
	received, err := workload.ReadStats(&wire)
	if err != nil {
		return err
	}
	replica := synthKeys(received, n)
	// What anonymity costs: the same fit with identities kept.
	plain := synthKeys(workload.FitStream(orig, gaps, workload.FitOptions{}), n)

	ok := keys(orig)
	fmt.Fprintf(w, "fidelity: KS(original, replica) = %.4f (identities kept: %.4f)\n",
		similarity.KS(ok, replica), similarity.KS(ok, plain))
	fmt.Fprintf(w, "quality:  original %s\n          replica  %s\n", quality.Score(ok, nil), quality.Score(replica, nil))

	// Benchmark against the replica stream.
	scenario := core.Scenario{
		Name:        "replica-benchmark",
		Seed:        11,
		InitialData: distgen.NewZipfKeys(12, 1.2, 1<<20),
		InitialSize: 30_000,
		TrainBefore: true,
		IntervalNs:  500_000,
		Phases: []core.Phase{{
			Name:   "replica",
			Ops:    n,
			Source: workload.NewSynthesizer(received, 7, 0),
		}},
	}
	for _, f := range []func() core.SUT{core.NewRMISUT, core.NewBTreeSUT} {
		res, err := core.NewRunner().Run(scenario, f())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "benchmark on replica: %-6s %.0f ops/s (p99 %dns)\n",
			res.SUT, res.Throughput(), res.Latency.Quantile(0.99))
	}
	return nil
}

// synthKeys draws the keys of n ops from a synthesizer over st.
func synthKeys(st *workload.TraceStats, n int) []uint64 {
	ops := make([]workload.Op, n)
	workload.NewSynthesizer(st, 7, 0).Fill(ops, make([]int64, n), 0, n)
	return keys(ops)
}

func keys(ops []workload.Op) []uint64 {
	out := make([]uint64, len(ops))
	for i, op := range ops {
		out[i] = op.Key
	}
	return out
}
