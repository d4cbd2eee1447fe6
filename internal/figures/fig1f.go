package figures

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/kv"
	"repro/internal/pager"
	"repro/internal/report"
	"repro/internal/workload"
)

// Fig 1f is the storage-tier panel: the disk-backed SUTs (paged B+ tree,
// disk LSM) under the three scenarios where the buffer pool — not the
// data structure — decides performance. Every run is virtual-clock
// deterministic: identical seed + knobs produce byte-identical result
// JSON, with page I/O priced by core's one price table (price.go).

// Fig1fColdPages is the pool size used by the cold-cache policy shootout:
// small enough that the leaf working set cannot fit, so eviction policy
// choice is visible in the hit ratio.
const Fig1fColdPages = 16

// Fig1fPoolSizes is the buffer-pool sweep of the IO-bound panel.
var Fig1fPoolSizes = []int{16, 64, 256}

// Fig1fCold is one eviction policy's cold-cache measurement.
type Fig1fCold struct {
	Policy     string
	HitRatio   float64
	Hits       uint64
	Misses     uint64
	PagesRead  uint64
	Throughput float64
	P99Ns      int64
}

// Fig1fIO is one pool size's IO-bound measurement.
type Fig1fIO struct {
	Pages      int
	HitRatio   float64
	PagesRead  uint64
	Throughput float64
	P50Ns      int64
}

// Fig1fWrite is one SUT's write-heavy measurement.
type Fig1fWrite struct {
	SUT             string
	Throughput      float64
	P99Ns           int64
	PagesWritten    uint64
	Fsyncs          uint64
	DirtyWritebacks uint64
	Evictions       uint64
}

// Fig1fResult carries the three storage panels plus the raw per-run
// results (keyed "cold/<policy>", "iobound/<pages>", "write/<sut>") for
// JSON pinning.
type Fig1fResult struct {
	Cold       []Fig1fCold
	IOBound    []Fig1fIO
	WriteHeavy []Fig1fWrite
	Results    map[string]*core.Result
}

// fig1fAccess builds the cold-cache access pattern: a few tight clusters
// (the hot leaves) mixed with uniform traffic and scans (the flood that
// separates scan-resistant policies from pure recency).
func fig1fAccess(seed uint64) distgen.Generator {
	return distgen.NewMixture(seed, []distgen.Generator{
		distgen.NewClustered(seed+1, 4, float64(distgen.KeyDomain)/1e7),
		distgen.NewUniform(seed+2, 0, distgen.KeyDomain),
	}, []float64{0.5, 0.5})
}

// Fig1f runs the storage-tier experiment ("Fig 1f"):
//
//   - cold-cache: the paged B+ tree starts with an empty pool (the load's
//     pages are dropped) and serves a hot/cold read mix under each
//     eviction policy at the same small pool — the hit-ratio shootout.
//   - io-bound: the same tree under uniform random reads at increasing
//     pool sizes — throughput tracks the hit ratio because page reads
//     dominate the priced work.
//   - write-heavy: paged B+ tree vs disk LSM under a put-dominated mix —
//     in-place dirtying and eviction writebacks against memtable flushes,
//     run files, and compaction rewrites.
func Fig1f(scale Scale, seed uint64) (*Fig1fResult, error) {
	runner := newRunner(scale)
	res := &Fig1fResult{Results: make(map[string]*core.Result)}

	// Panel 1: cold-cache policy shootout.
	policies := []string{"lru", "clock", "2q"}
	coldScenario := core.Scenario{
		Name:        "fig1f-cold-cache",
		Seed:        seed,
		InitialData: distgen.NewUniform(seed+1, 0, distgen.KeyDomain),
		InitialSize: scale.DataSize,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{{
			Name: "cold-read",
			Ops:  scale.Ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.Mix{GetFrac: 0.7, ScanFrac: 0.3, ScanLimit: 300},
				Access: distgen.Static{G: fig1fAccess(seed + 2)},
			}, nil),
		}},
	}
	coldSUTs := make([]*core.ColdStartSUT, len(policies))
	coldFactories := make([]func() core.SUT, len(policies))
	for i, pol := range policies {
		knobs := pager.PoolKnobs{Pages: Fig1fColdPages, Policy: pol}
		s := core.ColdStart(core.NewDiskBTreeSUT(knobs))
		coldSUTs[i] = s
		coldFactories[i] = func() core.SUT { return s }
	}
	coldResults, err := runner.RunAll(coldScenario, coldFactories)
	if err != nil {
		return nil, fmt.Errorf("figures: fig1f cold-cache: %w", err)
	}
	for i, pol := range policies {
		r := coldResults[i]
		c := coldSUTs[i].MeasuredCounters()
		res.Cold = append(res.Cold, Fig1fCold{
			Policy:     pol,
			HitRatio:   c.HitRatio(),
			Hits:       c.Hits,
			Misses:     c.Misses,
			PagesRead:  c.PagesRead,
			Throughput: r.Throughput(),
			P99Ns:      r.Latency.Quantile(0.99),
		})
		res.Results["cold/"+pol] = r
	}

	// Panel 2: IO-bound pool-size sweep.
	ioScenario := core.Scenario{
		Name:        "fig1f-io-bound",
		Seed:        seed + 100,
		InitialData: distgen.NewUniform(seed+101, 0, distgen.KeyDomain),
		InitialSize: scale.DataSize,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{{
			Name: "uniform-read",
			Ops:  scale.Ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.Mix{GetFrac: 1},
				Access: distgen.Static{G: distgen.NewUniform(seed+102, 0, distgen.KeyDomain)},
			}, nil),
		}},
	}
	ioSUTs := make([]*core.ColdStartSUT, len(Fig1fPoolSizes))
	ioFactories := make([]func() core.SUT, len(Fig1fPoolSizes))
	for i, pages := range Fig1fPoolSizes {
		knobs := pager.PoolKnobs{Pages: pages, Policy: "lru"}
		s := core.ColdStart(core.NewDiskBTreeSUT(knobs))
		ioSUTs[i] = s
		ioFactories[i] = func() core.SUT { return s }
	}
	ioResults, err := runner.RunAll(ioScenario, ioFactories)
	if err != nil {
		return nil, fmt.Errorf("figures: fig1f io-bound: %w", err)
	}
	for i, pages := range Fig1fPoolSizes {
		r := ioResults[i]
		c := ioSUTs[i].MeasuredCounters()
		res.IOBound = append(res.IOBound, Fig1fIO{
			Pages:      pages,
			HitRatio:   c.HitRatio(),
			PagesRead:  c.PagesRead,
			Throughput: r.Throughput(),
			P50Ns:      r.Latency.Quantile(0.5),
		})
		res.Results[fmt.Sprintf("iobound/%d", pages)] = r
	}

	// Panel 3: write-heavy compaction, B+ tree vs LSM at the stock pool.
	writeScenario := core.Scenario{
		Name:        "fig1f-write-heavy",
		Seed:        seed + 200,
		InitialData: distgen.NewUniform(seed+201, 0, distgen.KeyDomain),
		InitialSize: scale.DataSize,
		IntervalNs:  scale.IntervalNs,
		Phases: []core.Phase{{
			Name: "write-heavy",
			Ops:  scale.Ops,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.Mix{GetFrac: 0.2, PutFrac: 0.65, DeleteFrac: 0.05, ScanFrac: 0.1, ScanLimit: 100},
				Access: distgen.Static{G: distgen.NewUniform(seed+202, 0, distgen.KeyDomain)},
			}, nil),
		}},
	}
	writeSUTs := []*core.ColdStartSUT{
		core.ColdStart(core.NewDiskBTreeSUT(pager.DefaultPoolKnobs())),
		core.ColdStart(core.NewDiskKVSUT(kv.DefaultKnobs(), pager.DefaultPoolKnobs())),
	}
	writeFactories := make([]func() core.SUT, len(writeSUTs))
	for i, s := range writeSUTs {
		s := s
		writeFactories[i] = func() core.SUT { return s }
	}
	writeResults, err := runner.RunAll(writeScenario, writeFactories)
	if err != nil {
		return nil, fmt.Errorf("figures: fig1f write-heavy: %w", err)
	}
	for i, s := range writeSUTs {
		r := writeResults[i]
		c := s.MeasuredCounters()
		res.WriteHeavy = append(res.WriteHeavy, Fig1fWrite{
			SUT:             r.SUT,
			Throughput:      r.Throughput(),
			P99Ns:           r.Latency.Quantile(0.99),
			PagesWritten:    c.PagesWritten,
			Fsyncs:          c.Fsyncs,
			DirtyWritebacks: c.DirtyWritebacks,
			Evictions:       c.Evictions,
		})
		res.Results["write/"+r.SUT] = r
	}
	return res, nil
}

// renderFig1f prints the three panels as tables and emits them as one
// long-format CSV.
func renderFig1f(w io.Writer, res *Fig1fResult, csv csvFunc) {
	fmt.Fprintln(w, "cold cache — eviction policy shootout (disk-btree, pool", Fig1fColdPages, "pages):")
	var rows [][]string
	for _, c := range res.Cold {
		rows = append(rows, []string{
			c.Policy,
			fmt.Sprintf("%.3f", c.HitRatio),
			fmt.Sprintf("%d", c.Hits),
			fmt.Sprintf("%d", c.Misses),
			fmt.Sprintf("%d", c.PagesRead),
			fmt.Sprintf("%.0f", c.Throughput),
			fmt.Sprintf("%.3fms", float64(c.P99Ns)/1e6),
		})
	}
	report.Table(w, []string{"policy", "hit ratio", "hits", "misses", "pages read", "ops/s", "p99"}, rows)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "io-bound — pool-size sweep (disk-btree, lru, uniform reads):")
	rows = rows[:0]
	for _, p := range res.IOBound {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Pages),
			fmt.Sprintf("%.3f", p.HitRatio),
			fmt.Sprintf("%d", p.PagesRead),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.1fus", float64(p.P50Ns)/1e3),
		})
	}
	report.Table(w, []string{"pool pages", "hit ratio", "pages read", "ops/s", "p50"}, rows)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "write-heavy — in-place paging vs log-structured compaction:")
	rows = rows[:0]
	for _, p := range res.WriteHeavy {
		rows = append(rows, []string{
			p.SUT,
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.3fms", float64(p.P99Ns)/1e6),
			fmt.Sprintf("%d", p.PagesWritten),
			fmt.Sprintf("%d", p.Fsyncs),
			fmt.Sprintf("%d", p.DirtyWritebacks),
			fmt.Sprintf("%d", p.Evictions),
		})
	}
	report.Table(w, []string{"sut", "ops/s", "p99", "pages written", "fsyncs", "writebacks", "evictions"}, rows)
	fmt.Fprintln(w)
	csv("fig1f.csv", func(w io.Writer) {
		fmt.Fprintln(w, "panel,label,hit_ratio,pages_read,pages_written,fsyncs,evictions,throughput,p50_ns,p99_ns")
		for _, c := range res.Cold {
			fmt.Fprintf(w, "cold,%s,%.6f,%d,0,0,0,%.3f,0,%d\n",
				c.Policy, c.HitRatio, c.PagesRead, c.Throughput, c.P99Ns)
		}
		for _, p := range res.IOBound {
			fmt.Fprintf(w, "iobound,%d,%.6f,%d,0,0,0,%.3f,%d,0\n",
				p.Pages, p.HitRatio, p.PagesRead, p.Throughput, p.P50Ns)
		}
		for _, p := range res.WriteHeavy {
			fmt.Fprintf(w, "write,%s,0,0,%d,%d,%d,%.3f,0,%d\n",
				p.SUT, p.PagesWritten, p.Fsyncs, p.Evictions, p.Throughput, p.P99Ns)
		}
	})
}
