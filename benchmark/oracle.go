package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/workload"
)

// opStream yields a workload's operations in issue order. The oracle walks
// it twice (once to learn which keys can ever exist, once to execute), so a
// generated stream is re-generated rather than held in memory.
type opStream func(yield func(workload.Op))

func sliceStream(phases ...[]workload.Op) opStream {
	return func(yield func(workload.Op)) {
		for _, ops := range phases {
			for _, op := range ops {
				yield(op)
			}
		}
	}
}

// model is the reference key-value store the SUTs are checked against: the
// sorted slice of every key the stream can make present, a presence flag
// per key, and a Fenwick tree over the flags so a scan's visit count is a
// rank query rather than a walk. It knows nothing of any index structure.
type model struct {
	universe []uint64
	present  []bool
	fen      []int32
	live     int
}

func newModel(initial []uint64, stream opStream) *model {
	u := append([]uint64(nil), initial...)
	stream(func(op workload.Op) {
		if op.Type == workload.Put {
			u = append(u, op.Key)
		}
	})
	slices.Sort(u)
	u = slices.Compact(u)
	m := &model{universe: u, present: make([]bool, len(u)), fen: make([]int32, len(u)+1)}
	for _, k := range initial {
		m.set(m.rank(k), true)
	}
	return m
}

// rank is the index of the first universe key >= k.
func (m *model) rank(k uint64) int {
	r, _ := slices.BinarySearch(m.universe, k)
	return r
}

func (m *model) has(r int, k uint64) bool {
	return r < len(m.universe) && m.universe[r] == k && m.present[r]
}

func (m *model) set(r int, on bool) {
	if m.present[r] == on {
		return
	}
	m.present[r] = on
	d := int32(1)
	if !on {
		d = -1
	}
	m.live += int(d)
	for i := r + 1; i < len(m.fen); i += i & -i {
		m.fen[i] += d
	}
}

// below counts present keys with rank < r.
func (m *model) below(r int) int {
	n := 0
	for i := r; i > 0; i -= i & -i {
		n += int(m.fen[i])
	}
	return n
}

// expectation is what a correct SUT must report for a stream, in the terms
// core.OpOutcomes and the probe tally.
type expectation struct {
	ops, found, notFound, visited int64
	getHits, gets                 int64
}

// apply executes op on the model with core.IndexSUT's result semantics: a
// Get or Delete is found when the key is present, a Put is never "found", a
// Scan visits present keys from its start key until its limit.
func (m *model) apply(op workload.Op, e *expectation) {
	e.ops++
	r := m.rank(op.Key)
	switch op.Type {
	case workload.Get:
		e.gets++
		if m.has(r, op.Key) {
			e.found++
			e.getHits++
		} else {
			e.notFound++
		}
	case workload.Put:
		m.set(r, true)
	case workload.Delete:
		if m.has(r, op.Key) {
			e.found++
			m.set(r, false)
		} else {
			e.notFound++
		}
	case workload.Scan:
		rest := m.live - m.below(r)
		if rest > op.ScanLimit {
			rest = op.ScanLimit
		}
		e.visited += int64(rest)
	}
}

// expect replays the stream on a fresh model.
func expect(initial []uint64, stream opStream) expectation {
	m := newModel(initial, stream)
	var e expectation
	stream(func(op workload.Op) { m.apply(op, &e) })
	return e
}

// check compares what a SUT reported with the model's answer.
func (e expectation) check(who string, out core.OpOutcomes, visited int64) []string {
	var bad []string
	if out.Found != e.found || out.NotFound != e.notFound {
		bad = append(bad, fmt.Sprintf("%s: found/not-found %d/%d, oracle says %d/%d",
			who, out.Found, out.NotFound, e.found, e.notFound))
	}
	if visited != e.visited {
		bad = append(bad, fmt.Sprintf("%s: scans visited %d entries, oracle says %d", who, visited, e.visited))
	}
	return bad
}

// checkHitFraction asserts the share of lookups that find their key. The
// workloads draw 90 % of lookup keys from the loaded set on purpose: a
// stream of misses (what an independent uniform draw gives) exercises only
// the not-found path of every index.
func (e expectation) checkHitFraction(who string, want float64) []string {
	got := ratio(float64(e.getHits), float64(e.gets))
	// Four standard deviations of a draw of e.gets lookups, and never under a
	// percent: the smoke test's streams are a few hundred lookups long.
	tol := max(0.01, 4*math.Sqrt(want*(1-want)/float64(max(e.gets, 1))))
	if got < want-tol || got > want+tol {
		return []string{fmt.Sprintf("%s: %.4f of lookups hit, want %.2f", who, got, want)}
	}
	return nil
}

// digest folds values that must repeat exactly between two runs of the same
// seed into one number a reader can compare by eye.
type digest struct{ h uint64 }

func (d *digest) add(vs ...int64) {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	put(d.h)
	for _, v := range vs {
		put(uint64(v))
	}
	d.h = f.Sum64()
}

// addResult folds the virtual-clock fields of a core.Result: they depend on
// the op stream and the SUT's reported work only, never on wall time, so
// they are identical with and without the benchmark's wrappers.
func (d *digest) addResult(r *core.Result) {
	d.add(r.Completed, r.DurationNs, r.Outcomes.Found, r.Outcomes.NotFound,
		r.Outcomes.WorkUnits, r.Outcomes.Failed, r.OfflineTrainWork, r.OnlineTrainWork,
		r.Latency.Quantile(0.5), r.Latency.Quantile(0.99))
	for _, ph := range r.Phases {
		d.add(ph.EndNs, ph.Completed)
	}
}
