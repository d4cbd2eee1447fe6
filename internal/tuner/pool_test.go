package tuner

import (
	"reflect"
	"testing"

	"repro/internal/pager"
)

// skewedPoolScore replays a hot/cold page access pattern (a small hot set
// re-touched between uniform-ish cold sweeps — the pattern that floods
// pure recency policies) against one pool configuration and returns the
// hit ratio penalized by memory footprint, so bigger pools must earn
// their frames.
func skewedPoolScore(t *testing.T, knobs pager.PoolKnobs) float64 {
	t.Helper()
	f, err := pager.Create(pager.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	pool := pager.NewPool(f, knobs)
	const filePages = 128
	ids := make([]pager.PageID, filePages)
	for i := range ids {
		_, id, err := pool.Alloc(pager.TypeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
		ids[i] = id
	}
	if err := pool.DropCache(); err != nil {
		t.Fatal(err)
	}
	base := pool.Counters()

	for i := 0; i < 4000; i++ {
		var id pager.PageID
		if i%2 == 0 {
			id = ids[(i/2)%12] // hot set
		} else {
			id = ids[12+(i*13)%116] // cold sweep
		}
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
	return pool.Counters().Sub(base).HitRatio() - 0.002*float64(knobs.Pages)
}

func TestPoolSweepFindsScanResistantPolicy(t *testing.T) {
	res := PoolSweep(func(k pager.PoolKnobs) float64 {
		return skewedPoolScore(t, k)
	})
	if res.Evaluations != len(pager.PoolSpace()) {
		t.Fatalf("sweep evaluated %d of %d configurations",
			res.Evaluations, len(pager.PoolSpace()))
	}

	// On the flooding workload the winning policy must be scan-resistant:
	// plain recency (lru, and its clock approximation) loses the hot set
	// to the cold sweep, while 2Q's probation queue shields it. And the
	// memory penalty must rule out simply buying the whole file: at the
	// biggest pool every policy ties (everything resident), so the sweep
	// only beats it by earning hits with fewer frames.
	if res.Best.Policy != "2q" {
		t.Fatalf("sweep picked %s — flooding did not separate policies: %+v",
			res.Best.Policy, res.Trace)
	}
	if res.Best.Pages == 256 {
		t.Fatalf("sweep bought the whole file (%d pages) despite the memory penalty: %+v",
			res.Best.Pages, res.Trace)
	}

	// The policy gap at the winning size must be measurable.
	lo, hi := 2.0, -2.0
	for _, s := range res.Trace {
		if s.Knobs.Pages != res.Best.Pages {
			continue
		}
		if s.Score < lo {
			lo = s.Score
		}
		if s.Score > hi {
			hi = s.Score
		}
	}
	if hi-lo < 0.01 {
		t.Fatalf("policies indistinguishable at %d pages: span [%v, %v]",
			res.Best.Pages, lo, hi)
	}
}

func TestPoolSweepDeterministic(t *testing.T) {
	eval := func(k pager.PoolKnobs) float64 { return skewedPoolScore(t, k) }
	a := PoolSweep(eval)
	b := PoolSweep(eval)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pool sweep not deterministic:\n%+v\n%+v", a, b)
	}
}
