package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/index/diskbtree"
	"repro/internal/kv"
	"repro/internal/pager"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The three virtual-clock workloads. Each runs a lineup of SUTs through
// core.Runner on one thread; what differs is which layers do the work.

const (
	// dispatchBatch is Runner.Batch on the virtual workloads: the batched
	// path is the one PR 8 optimised and the one a user after speed picks.
	dispatchBatch = 64
	// keyDomain bounds uniform keys. Small enough that float64 models keep
	// full precision, large enough that a random draw misses the loaded set.
	keyDomain = uint64(1) << 40
	// hitFraction of lookup keys come from the loaded set.
	hitFraction = 0.9
)

// sutDef names one member of a lineup. make receives the run's probe so the
// traced disk B+ tree can hang its timed backend on it.
type sutDef struct {
	name string
	make func(p *probe) core.SUT
}

func plain(f func() core.SUT) func(*probe) core.SUT {
	return func(*probe) core.SUT { return f() }
}

var memLineup = []sutDef{
	{"btree", plain(core.NewBTreeSUT)},
	{"rmi", plain(core.NewRMISUT)},
	{"alex", plain(core.NewALEXSUT)},
}

// sutRun is one finished repetition of one SUT.
type sutRun struct {
	def   sutDef
	p     *probe
	res   *core.Result
	inner core.SUT // the bare SUT, for probes that bypass the adapter
	keys  int      // initial keys loaded

	// Filled by passResult.addRun, which then drops res and inner.
	virt      digest // of the virtual fields of res
	virtualNs int64  // virtual time the phases took
	isDisk    bool
}

// runOne runs scenario s against a fresh SUT through core.Runner, with the
// probe's wrappers in place. mk builds the scenario around the probe because
// in the traced pass the phase sources are bound to the run they time.
func runOne(c config, def sutDef, rootName string, mk func(*probe) core.Scenario) (sutRun, error) {
	p := newProbe(c.tracer, rootName)
	inner := def.make(p)
	p.counters = func() counters { return readCounters(inner) }
	s := mk(p)
	p.reserve(totalOps(s)/dispatchBatch+len(s.Phases), totalOps(s))
	r := core.NewRunner()
	r.Parallel, r.Batch = 1, dispatchBatch
	r.WrapSUT = func(sut core.SUT, _ sim.Clock) core.SUT { return wrapSUT(sut, p, s.TrainBefore) }
	res, err := r.Run(s, inner)
	p.finish()
	if err != nil {
		return sutRun{}, fmt.Errorf("%s: %w", rootName, err)
	}
	return sutRun{def: def, p: p, res: res, inner: inner, keys: len(s.InitialKeys)}, nil
}

func totalOps(s core.Scenario) int {
	n := 0
	for _, ph := range s.Phases {
		n += ph.Ops
	}
	return n
}

// scenarioStream yields the ops a scenario issues, the way the runner draws
// them. mk must return a fresh scenario each call: generator sources carry
// state.
func scenarioStream(mk func() core.Scenario) opStream {
	return func(yield func(workload.Op)) {
		s := mk()
		ops := make([]workload.Op, dispatchBatch)
		gaps := make([]int64, dispatchBatch)
		for pi, ph := range s.Phases {
			if ph.Trace != nil {
				for _, op := range ph.Trace.Ops {
					yield(op)
				}
				continue
			}
			ph.Source.Reset(workload.PhaseSeed(s.Seed, pi))
			for pos := 0; pos < ph.Ops; pos += len(ops) {
				n := ph.Ops - pos
				if n > len(ops) {
					n = len(ops)
				}
				n = ph.Source.Fill(ops[:n], gaps[:n], pos, ph.Ops)
				for _, op := range ops[:n] {
					yield(op)
				}
			}
		}
	}
}

// uniformKeys draws n sorted unique keys uniformly from the key domain.
func uniformKeys(seed uint64, n int) []uint64 {
	return distgen.UniqueKeys(distgen.NewUniform(seed, 0, keyDomain), n)
}

// lookupKeys draws n lookup keys: hitFraction of them loaded[pick()], the
// rest uniform keys that are not loaded (and, since every Put of these
// workloads overwrites a loaded key, never will be).
func lookupKeys(rng *stats.RNG, loaded []uint64, n int, pick func() int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		if rng.Float64() < hitFraction {
			out[i] = loaded[pick()]
			continue
		}
		for {
			k := rng.Uint64() % keyDomain
			if _, isLoaded := slices.BinarySearch(loaded, k); !isLoaded {
				out[i] = k
				break
			}
		}
	}
	return out
}

// ---------------------------------------------------------------- mem-point

const (
	// memPointKeys × 16 B of entries is twice the reference box's 2 MB L2 and
	// a sixtieth of the L3 it shares with its neighbours: lookups miss L2, but
	// the run does not depend on how much of the shared cache it is left (at
	// 1M keys the same code ranged over 25 % from one minute to the next).
	memPointKeys    = 262_144
	memPointLookups = 1 << 21 // replayed cyclically; 16 MB, so the key stream itself streams through the caches
	memPointOpsRef  = 675_000 // per SUT and repetition at refSeconds
	// Setup is cheap here and every cycle is alike, so the tail over cycles is
	// nothing but the cycles that met no quiet moment: many repetitions.
	memPointReps = 18
)

func runMemPoint(c config) (*passResult, error) {
	pr := newPass("mem-point", c)
	nKeys := c.shrunk(memPointKeys)
	nOps := c.shrunk(c.scaled(memPointOpsRef))

	var want expectation
	var lookups []uint64
	for rep := 0; rep < memPointReps; rep++ {
		t0 := now()
		keys := uniformKeys(c.seed*16+1, nKeys)
		pr.layerMin("distgen.unique_keys_s", secondsSince(t0))
		rng := stats.NewRNG(c.seed*16 + 2)
		lookups = lookupKeys(rng, keys, c.shrunk(memPointLookups), func() int { return rng.Intn(len(keys)) })
		pr.inputNs = append(pr.inputNs, now()-t0)

		scenario := func(p *probe) core.Scenario {
			// One Replay per run: every SUT draws the identical key stream from
			// position 0, through the live generator path (mix draw, key draw,
			// arrival draw per op) that a config-driven lsbench run uses.
			spec := workload.Spec{Name: "point-get", Mix: workload.Mix{GetFrac: 1}, Access: distgen.NewReplay(lookups)}
			return core.Scenario{Name: "mem-point", Seed: c.seed, InitialKeys: keys, TrainBefore: true,
				Phases: []core.Phase{{Name: "get", Ops: nOps, Source: p.traceSource(workload.NewSource(spec, nil, 0))}}}
		}
		if rep == 0 {
			want = expect(keys, scenarioStream(func() core.Scenario { return scenario(&probe{}) }))
			pr.problems = append(pr.problems, want.checkHitFraction("mem-point", hitFraction)...)
		}
		for i, def := range memLineup {
			run, err := runOne(c, def, fmt.Sprintf("run:mem-point/%s#%d", def.name, rep), scenario)
			if err != nil {
				return nil, err
			}
			if c.tracer != nil && rep == memPointReps-1 {
				pr.indexGetProbe(run, lookups)
				if i == 0 {
					pr.harnessProbes(run)
				}
			}
			pr.addRun(run, want)
		}
	}
	if c.tracer != nil {
		pr.drawProbe(lookups)
	}
	pr.finishVirtual()
	return pr, nil
}

// ---------------------------------------------------------------- mem-drift

const (
	memDriftKeys      = 250_000
	memDriftUniverse  = 1 << 22
	memDriftSteadyOps = 150_000 // per phase at refSeconds
	memDriftShiftOps  = 150_000
	memDriftScanOps   = 36_000
	memDriftReps      = 9
)

// memDriftScenario is the multi-phase drift scenario: a skewed read-mostly
// phase, an open-loop write burst into a different key region, then a
// retrain and a scan-heavy phase over what the burst left behind.
func memDriftScenario(c config) core.Scenario {
	seed := c.seed * 64
	ops := func(ref int) int { return c.shrunk(c.scaled(ref)) }
	zipf := func(k uint64) distgen.Generator { return distgen.NewZipfKeys(seed+k, 1.1, memDriftUniverse) }
	clustered := func(k uint64) distgen.Drift {
		return distgen.Static{G: distgen.NewClustered(seed+k, 32, float64(distgen.KeyDomain)/4096)}
	}
	return core.Scenario{
		Name:        "mem-drift",
		Seed:        seed,
		InitialData: zipf(1),
		InitialSize: c.shrunk(memDriftKeys),
		TrainBefore: true,
		Phases: []core.Phase{
			{Name: "steady", Ops: ops(memDriftSteadyOps),
				Workload: workload.Spec{Name: "steady", Mix: workload.ReadHeavy, Access: distgen.Static{G: zipf(2)}}},
			{Name: "shift", Ops: ops(memDriftShiftOps),
				Workload: workload.Spec{Name: "shift", Mix: workload.WriteHeavy, Access: clustered(3), InsertKeys: clustered(4)},
				Arrival:  workload.NewPoisson(seed+5, 600_000)},
			{Name: "scan", Ops: ops(memDriftScanOps), RetrainBefore: true,
				Workload: workload.Spec{Name: "scan", Mix: workload.ScanHeavy, Access: distgen.Static{G: zipf(6)}}},
		},
	}
}

func runMemDrift(c config) (*passResult, error) {
	pr := newPass("mem-drift", c)
	var want expectation
	for rep := 0; rep < memDriftReps; rep++ {
		// Every repetition is the whole experiment from the generators up, on
		// fresh SUTs, through the path the CLI takes when it compares SUTs.
		t0 := now()
		s := memDriftScenario(c)
		s.InitialKeys = distgen.UniqueKeys(s.InitialData, s.InitialSize)
		pr.layerMin("distgen.unique_keys_s", secondsSince(t0))
		t1 := now()
		s = s.Materialize()
		pr.layerMin("workload.materialize_s", secondsSince(t1))
		pr.inputNs = append(pr.inputNs, now()-t0)
		if rep == 0 {
			var streams [][]workload.Op
			for _, ph := range s.Phases {
				streams = append(streams, ph.Trace.Ops)
			}
			want = expect(s.InitialKeys, sliceStream(streams...))
		}

		runs := make([]sutRun, len(memLineup))
		factories := make([]func() core.SUT, len(memLineup))
		cur := -1
		for i, def := range memLineup {
			factories[i] = func() core.SUT {
				// RunAll (Parallel=1) calls factory i immediately before
				// run i, so this is also where run i-1 ended.
				if cur >= 0 {
					runs[cur].p.finish()
				}
				cur = i
				p := newProbe(c.tracer, fmt.Sprintf("run:mem-drift/%s#%d", def.name, rep))
				p.reserve(totalOps(s)/dispatchBatch+len(s.Phases), totalOps(s))
				inner := def.make(p)
				p.counters = func() counters { return readCounters(inner) }
				runs[i] = sutRun{def: def, p: p, keys: len(s.InitialKeys)}
				return inner
			}
		}
		r := core.NewRunner()
		r.Parallel, r.Batch = 1, dispatchBatch
		r.WrapSUT = func(sut core.SUT, _ sim.Clock) core.SUT { return wrapSUT(sut, runs[cur].p, s.TrainBefore) }
		results, err := r.RunAll(s, factories)
		if err != nil {
			return nil, err
		}
		runs[cur].p.finish()
		for i := range runs {
			runs[i].res = results[i]
			pr.addRun(runs[i], want)
		}
	}
	pr.finishVirtual()
	return pr, nil
}

// ---------------------------------------------------------------- disk-cold

const (
	// diskKeys is bounded by DiskKVSUT.Load, whose cost grows with the square
	// of the key count (README: 6.6 us/key at 50k keys, 34 us/key at 200k):
	// diskReps loads of 200k keys would take eight times the measured region.
	diskKeys        = 50_000
	diskPoolPages   = 16      // under ~200 leaf pages of data: a twelfth of the working set
	diskBTreeOpsRef = 64_000  // per repetition at refSeconds: 1000 cycles, so that the p99 has ten beyond it
	diskLSMOpsRef   = 256_000 // cheaper per op than the B+ tree, and the one with flushes to meet
	diskReps        = 18      // the cycles are long (100 us), so few repetitions of one stay undisturbed
)

var diskPool = pager.PoolKnobs{Pages: diskPoolPages, Policy: "lru"}

// tracedDiskBTree composes the disk B+ tree exactly as core.NewDiskBTreeSUT
// does, with the benchmark's timed backend under the page file.
func tracedDiskBTree(p *probe) core.SUT {
	f, err := pager.Create(&timedBackend{Backend: pager.NewMemBackend(), p: p})
	if err != nil {
		panic(fmt.Sprintf("benchmark: creating page file: %v", err))
	}
	return core.NewIndexSUT(diskbtree.New(pager.NewPool(f, diskPool)))
}

func diskLineup(traced bool) []sutDef {
	bt := plain(func() core.SUT { return core.NewDiskBTreeSUT(diskPool) })
	if traced {
		bt = tracedDiskBTree
	}
	return []sutDef{
		{"disk-btree", bt},
		{"disk-lsm", plain(func() core.SUT { return core.NewDiskKVSUT(kv.DefaultKnobs(), diskPool) })},
	}
}

func runDiskCold(c config) (*passResult, error) {
	pr := newPass("disk-cold", c)
	lineup := diskLineup(c.tracer != nil)
	nKeys := c.shrunk(diskKeys)
	nOps := map[string]int{"disk-btree": c.shrunk(c.scaled(diskBTreeOpsRef)), "disk-lsm": c.shrunk(c.scaled(diskLSMOpsRef))}
	longest := nOps["disk-lsm"]

	want := map[string]expectation{}
	for rep := 0; rep < diskReps; rep++ {
		t0 := now()
		keys := uniformKeys(c.seed*16+1, nKeys)
		pr.layerMin("distgen.unique_keys_s", secondsSince(t0))
		// Both key streams are zipf(0.9) over the loaded keys: lookups and
		// overwrites keep returning to the same hot pages, and because a Put
		// never adds a key the data size (and the pool's share of it) stays
		// level for the whole run.
		rng := stats.NewRNG(c.seed*16 + 2)
		z := stats.NewScrambledZipf(rng.Split(), 0.9, uint64(len(keys)))
		pick := func() int { return int(z.Next()) }
		// Balanced draws a lookup key or an overwrite key per op, about half
		// of each; a Replay that runs out wraps around.
		reads := lookupKeys(rng, keys, longest/2, pick)
		writes := make([]uint64, longest/2)
		for i := range writes {
			writes[i] = keys[pick()]
		}
		spec := workload.Spec{Name: "get-overwrite", Mix: workload.Balanced,
			Access: distgen.NewReplay(reads), InsertKeys: distgen.NewReplay(writes)}
		// The ops are generated once and replayed to both SUTs (the shorter
		// run takes a prefix), as a recorded trace would be.
		stream := make([]workload.Op, longest)
		t1 := now()
		workload.NewSource(spec, nil, c.seed*16+3).Fill(stream, make([]int64, longest), 0, longest)
		pr.layerMin("workload.materialize_s", secondsSince(t1))
		pr.inputNs = append(pr.inputNs, now()-t0)

		for _, def := range lineup {
			ops := stream[:nOps[def.name]]
			scenario := func(p *probe) core.Scenario {
				return core.Scenario{Name: "disk-cold", Seed: c.seed, InitialKeys: keys,
					Phases: []core.Phase{{Name: "get-overwrite", Ops: len(ops),
						Source: p.traceSource(workload.NewTraceReader("disk-cold", ops, nil))}}}
			}
			if rep == 0 {
				want[def.name] = expect(keys, sliceStream(ops))
				pr.problems = append(pr.problems, want[def.name].checkHitFraction("disk-cold/"+def.name, hitFraction)...)
			}
			run, err := runOne(c, def, fmt.Sprintf("run:disk-cold/%s#%d", def.name, rep), scenario)
			if err != nil {
				return nil, err
			}
			pr.addRun(run, want[def.name])
		}
	}
	pr.finishVirtual()
	return pr, nil
}
