package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/driver"
	"repro/internal/netdriver"
	"repro/internal/stats"
	"repro/internal/workload"
)

// wire-rt: the real-time path. driver.Run drives one netdriver.Client (as
// `lsbench -remote` does) against netdriver.Serve on the loopback interface.

const (
	wireKeys        = 200_000
	wireWorkers     = 2 // = nproc on the reference box; both share the one client behind the driver's lock
	wireSegmentOps  = 20_000
	wireSegmentsRef = 40
)

func runWireRT(c config) (*passResult, error) {
	pr := newPass("wire-rt", c)
	nKeys := c.shrunk(wireKeys)
	segOps := c.shrunk(wireSegmentOps)
	segments := c.scaled(wireSegmentsRef)
	perWorker := (segOps + wireWorkers - 1) / wireWorkers

	// Every segment generates the same inputs anew and replays them against a
	// fresh server-side SUT, so each segment is the same experiment from the
	// generators up; the quietest generation counts towards setup_s.
	var keys []uint64
	specs := make([]func() workload.Spec, wireWorkers)
	var inputNs []int64
	generate := func() {
		t0 := now()
		keys = uniformKeys(c.seed*16+1, nKeys)
		pr.layerMin("distgen.unique_keys_s", secondsSince(t0))
		for w := range specs {
			rng := stats.NewRNG(c.seed*16 + 2 + uint64(w))
			pick := func() int { return rng.Intn(len(keys)) }
			reads := lookupKeys(rng, keys, perWorker, pick)
			// Puts overwrite loaded keys: no key appears or disappears, so what
			// a lookup finds does not depend on how the two workers interleave.
			writes := make([]uint64, perWorker/8+1)
			for i := range writes {
				writes[i] = keys[pick()]
			}
			specs[w] = func() workload.Spec {
				return workload.Spec{Name: "read-heavy", Mix: workload.ReadHeavy,
					Access: distgen.NewReplay(reads), InsertKeys: distgen.NewReplay(writes)}
			}
		}
		inputNs = append(inputNs, now()-t0)
	}
	generate()
	source := func(w int) workload.Source {
		return workload.NewSource(specs[w](), nil, workload.PhaseSeed(c.seed, w))
	}
	want := expect(keys, func(yield func(workload.Op)) {
		ops, gaps := make([]workload.Op, 1), make([]int64, 1)
		for w := 0; w < wireWorkers; w++ {
			share := segOps / wireWorkers // driver.Run's split: the first Ops%Workers workers take one more
			if w < segOps%wireWorkers {
				share++
			}
			src := source(w)
			for i := 0; i < share; i++ {
				src.Fill(ops, gaps, i, share)
				yield(ops[0])
			}
		}
	})
	pr.problems = append(pr.problems, want.checkHitFraction("wire-rt", hitFraction)...)

	// The traced pass runs every segment twice, wrappers silent and then
	// recording: the machine's speed shifts between one second and the next,
	// and only neighbouring segments can be compared for what tracing costs.
	if c.tracer != nil {
		segments *= 2
	}
	// Sized up front: an array that grew segment by segment would show up as
	// a rising setup_heap_mb.
	rtNs := make([]int64, 0, segments*segOps)
	// Per worker and segment, the latency and the turn-around of each of the
	// worker's ops.
	lat, turn := make([][][]int64, wireWorkers), make([][][]int64, wireWorkers)
	var serverNs, setupNs []int64
	var rates, tracedOverPlain, latP50, latTail, heapMB []float64
	var driverLatSum, driverLatN, postNs, retries float64
	for seg := 0; seg < segments; seg++ {
		if seg > 0 {
			generate()
		}
		tr := c.tracer
		if seg%2 == 0 {
			tr = nil
		}
		var calls [][2]int64
		factory := core.NewBTreeSUT
		if tr != nil {
			factory = func() core.SUT { return serverSUT{core.AsBatch(core.NewBTreeSUT()), &calls} }
		}
		p := newProbe(tr, fmt.Sprintf("run:wire-rt/btree#%d", seg))
		p.batchSpan = "netdriver.roundtrip"
		p.reserve(segOps, segOps)
		srv, err := netdriver.Serve("127.0.0.1:0", factory)
		if err != nil {
			return nil, err
		}
		cl, err := netdriver.Dial(srv.Addr())
		if err != nil {
			srv.Close()
			return nil, err
		}
		sut := wrapSUT(cl, p, false)
		sut.Load(keys, core.LoadValues(keys))
		setupNs = append(setupNs, p.loadedAt-p.wrapAt)
		heapMB = append(heapMB, p.heapMB)

		gaps := make([]*gapSource, wireWorkers)
		for w := range gaps {
			gaps[w] = &gapSource{Source: source(w), lat: make([]int64, 0, perWorker), turn: make([]int64, 0, perWorker)}
		}
		runStart := now()
		res, err := driver.Run(sut, workload.Spec{}, nil, 0, driver.Options{
			Workers: wireWorkers,
			Ops:     segOps,
			Seed:    c.seed,
			Batch:   1,
			Sources: func(w int) workload.Source { return gaps[w] },
		})
		runNs := now() - runStart
		p.finish()
		retries += float64(cl.Retries())
		cerr := cl.Err()
		cl.Close()
		srv.Close() // waits for the connection's goroutine: calls is safe to read from here on
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, fmt.Errorf("wire-rt: client session failed: %w", cerr)
		}

		who := fmt.Sprintf("wire-rt/btree#%d", seg)
		pr.problems = append(pr.problems, want.check(who, res.Outcomes, p.visited)...)
		if tr != nil || c.tracer == nil { // one fold per segment, so the passes' digests compare
			pr.digest.add(res.Completed, res.Outcomes.Found, res.Outcomes.NotFound)
		}
		pr.attempted += int64(segOps)
		pr.failed += int64(segOps) - res.Completed
		rates = append(rates, float64(res.Completed)/(float64(res.DurationNs)/1e9))
		var p50 float64
		var both []int64
		for w, g := range gaps {
			lat[w], turn[w] = append(lat[w], g.lat), append(turn[w], g.turn)
			p50 += float64(percentile(sortedCopy(g.lat), 0.5)) / 1e3 / wireWorkers
			both = append(both, g.lat...)
		}
		slices.Sort(both)
		latP50, latTail = append(latP50, p50), append(latTail, float64(percentile(both, wireTail))/1e3)
		pr.layer["runtime.allocs_per_op"] += float64(p.mallocs) / float64(segOps) / float64(segments)
		pr.layerMin("netdriver.load_s", float64(p.loadNs)/1e9)

		rtNs = append(rtNs, p.sutNs...)
		driverLatSum += res.Latency.Mean() * float64(res.Latency.Count())
		driverLatN += float64(res.Latency.Count())
		postNs += float64(runNs - res.DurationNs)
		if tr != nil {
			if err := addServerSpans(tr, p.root, calls); err != nil {
				pr.problems = append(pr.problems, who+": "+err.Error())
			}
			for _, call := range calls {
				serverNs = append(serverNs, call[1]-call[0])
			}
			tracedOverPlain = append(tracedOverPlain, rates[seg]/rates[seg-1])
		}
	}

	// The two workers race for one lock and one socket, so no two segments
	// make the same round trips in the same order, and for seconds at a time
	// most round trips cross CPUs and cost a half more, whatever the code
	// does. Each worker, though, issues the same ops in every segment, so the
	// segments are repetitions in the sense of the virtual workloads, and the
	// figures are built the same way, from each op's quietest repetition: an
	// op whose worker did not wait for the lock. Their median is the latency;
	// and since the connection serves one op at a time, ops over the sum of
	// their quietest turn-arounds is the pace the connection sustains while
	// one worker holds it. What the hand-off between the workers costs on top
	// is in the tail and in the driver layer's achieved rates. The tail
	// (see e2eDefs) sits on the lock's 1 ms hand-off, which a quiet segment
	// makes rarer, not faster, so the segment with the lowest tail is the
	// luckiest one: the median over segments is taken, each segment's sample
	// being both workers' ops.
	var pooled []int64
	var turnNs, turns int64
	for w := range lat {
		pr.e2e[mP50] += float64(percentile(sortedCopy(quietest(lat[w])), 0.5)) / 1e3 / wireWorkers
		quiet := quietest(turn[w])
		turnNs, turns = turnNs+sumInt64(quiet), turns+int64(len(quiet))
		for _, l := range lat[w] {
			pooled = append(pooled, l...)
		}
	}
	pr.e2e[mOps] = float64(turns) / (float64(turnNs) / 1e9)
	pr.notes[mOps] = "from each op's quietest segment; achieved by segment, " + quartileNote(rates, "segments")
	pr.e2e[mSetup] = float64(slices.Min(inputNs)+slices.Min(setupNs)) / 1e9
	pr.notes[mSetup] = fmt.Sprintf("quietest of %d input generations + quietest of %d serve, dial and load", segments, segments)
	pr.notes[mP50] = "each op's quietest segment; per worker, mean over the workers; by segment, " + quartileNote(latP50, "segments")
	tail := tailPercentile(len(pooled))
	slices.Sort(pooled)
	pr.e2e[mTail], pr.notes[mTail] = median(latTail), "p99.5 of both workers' ops, median segment; "+quartileNote(latTail, "segments")+fmt.Sprintf("; over all %d ops p%.6g = %.4f us",
		len(pooled), tail*100, float64(percentile(pooled, tail))/1e3)
	pr.e2e[mHeap], pr.notes[mHeap] = stats.Mean(heapMB), "mean of "+quartileNote(heapMB, "setups")

	rt := sortedCopy(rtNs)
	pr.layer["netdriver.roundtrip_us_p50"] = float64(percentile(rt, 0.5)) / 1e3
	pr.layer["netdriver.roundtrip_us_p99"] = float64(percentile(rt, 0.99)) / 1e3
	pr.layer["netdriver.retries"] = retries
	pr.layer["driver.lock_wait_us_mean"] = (ratio(driverLatSum, driverLatN) - meanInt64(rtNs)) / 1e3
	pr.layer["driver.post_s"] = postNs / 1e9 / float64(segments)
	pr.layer["driver.achieved_ops_per_s_best"] = slices.Max(rates)
	pr.layer["driver.achieved_ops_per_s_median"] = median(rates)
	if c.tracer != nil {
		pr.layer["netdriver.server_sut_us_p50"] = float64(percentile(sortedCopy(serverNs), 0.5)) / 1e3
		pr.layer["netdriver.wire_self_us_mean"] = (meanInt64(rtNs) - meanInt64(serverNs)) / 1e3
		pr.layer["trace.overhead_frac"] = 1 - median(tracedOverPlain)
	}
	return pr, nil
}

// addServerSpans hangs the server's DoBatch spans under the client's round
// trips of the run rooted at root: the connection is serialised, so the nth
// server call answers the nth round trip.
func addServerSpans(tr *tracer, root int32, calls [][2]int64) error {
	n := 0
	for id, end := int(root)+1, len(tr.spans); id < end && n < len(calls); id++ {
		if s := tr.spans[id]; s.parent == root && s.name == "netdriver.roundtrip" {
			tr.add(int32(id), "server.sut.dobatch", calls[n][0], calls[n][1])
			n++
		}
	}
	if n != len(calls) {
		return fmt.Errorf("%d server calls but %d round trips", len(calls), n)
	}
	return nil
}
