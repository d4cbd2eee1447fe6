package driver

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/workload"
)

// BenchmarkDriverDispatch measures real-time driver throughput at several
// dispatch batch sizes: with 4 workers, batch=1 pays one dispatch and one
// pair of clock reads (and, remotely, one wire round trip) per 4 ops; larger
// batches amortize it further. Run via
// `make bench-smoke` or `go test -bench=DriverDispatch ./internal/driver`.
func BenchmarkDriverDispatch(b *testing.B) {
	spec := workload.Spec{
		Mix:    workload.ReadHeavy,
		Access: distgen.Static{G: distgen.NewUniform(40, 0, 1<<40)},
	}
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(core.NewBTreeSUT(), spec,
					distgen.NewUniform(41, 0, 1<<40), 20000,
					Options{Workers: 4, Ops: 40000, Seed: 42, Batch: batch})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput(), "ops/s")
			}
		})
	}
}
