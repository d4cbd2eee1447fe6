package pager

import (
	"fmt"
	"strings"
	"testing"
)

// policyScript drives pol through a fixed admit/touch/remove history (a
// small LCG picks each step) the way a pool would — evicting the policy's
// victim whenever 8 pages are resident, with every fifth page ID "pinned"
// — and returns the victim sequence.
func policyScript(pol evictPolicy) string {
	const capacity = 8
	var resident, evicted []PageID
	pinned := func(id PageID) bool { return id%5 == 0 }
	drop := func(id PageID) {
		for i, r := range resident {
			if r == id {
				resident = append(resident[:i], resident[i+1:]...)
				break
			}
		}
		pol.remove(id)
	}
	var out []string
	next := PageID(2)
	seed := uint32(12345)
	rnd := func(n int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>16) % n
	}
	for step := 0; step < 240; step++ {
		switch op := rnd(10); {
		case op < 4 && len(resident) > 0:
			pol.touch(resident[rnd(len(resident))])
		case op < 8:
			if len(resident) >= capacity {
				v, ok := pol.victim(pinned)
				if !ok {
					out = append(out, "-")
					continue
				}
				out = append(out, fmt.Sprint(v))
				evicted = append(evicted, v)
				drop(v)
			}
			// Every third admission brings back the longest-gone victim, so
			// 2Q's ghost queue sees returning pages.
			id := next
			if step%3 == 0 && len(evicted) > 0 {
				id, evicted = evicted[0], evicted[1:]
			} else {
				next++
			}
			pol.admit(id)
			resident = append(resident, id)
		case op == 8 && len(resident) > 0:
			drop(resident[rnd(len(resident))])
		}
	}
	return strings.Join(out, " ")
}

// TestPolicyVictimSequence pins each policy's eviction order to the
// sequence recorded from the container/list implementations at 716bd56:
// the slab-backed list must pick the same victims in the same order.
func TestPolicyVictimSequence(t *testing.T) {
	want := map[string]string{
		"lru": "" +
			"2 4 7 3 8 2 11 4 9 6 13 12 3 8 2 19 21 22 11 4 16 9 23 6 " +
			"24 26 13 28 29 27 31 12 32 3 8 33 34 36 2 38 39 19 42 43 44 41 21 47 " +
			"46 22 48 11 49 51 52 53 54 56 4 57 16 59 61 58 67 68 69 9 71 72 73 74",
		"clock": "" +
			"2 7 8 9 2 11 7 14 9 3 12 13 2 4 16 19 21 14 23 9 24 3 26 27 " +
			"12 28 29 11 7 22 31 13 32 2 4 36 16 37 34 38 41 43 44 33 19 42 21 47 " +
			"14 48 23 49 39 46 51 52 56 9 57 24 58 59 61 64 67 68 69 3 71 72 76 26",
		"2q": "" +
			"2 7 8 9 11 3 2 7 4 14 6 16 18 9 13 3 22 2 21 19 7 23 4 26 " +
			"27 6 28 29 31 24 32 16 18 9 33 34 36 13 38 37 39 3 42 43 44 46 41 22 " +
			"47 2 48 21 51 49 52 53 56 19 57 7 58 59 63 61 67 68 69 23 71 72 73 76",
	}
	for _, name := range []string{"lru", "clock", "2q"} {
		got := policyScript(newPolicy(PoolKnobs{Pages: 8, Policy: name}))
		if got != want[name] {
			t.Errorf("%s victim sequence changed:\n got %s\nwant %s", name, got, want[name])
		}
	}
}

// floodingHitRatio replays a hot/cold page access pattern — a 12-page hot
// set re-touched between steps of a cold sweep over 116 more, the pattern
// that floods a pure recency policy — against one pool configuration.
func floodingHitRatio(t *testing.T, knobs PoolKnobs) float64 {
	t.Helper()
	f, err := Create(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(f, knobs)
	ids := make([]PageID, 128)
	for i := range ids {
		_, id, err := pool.Alloc(TypeLeaf)
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
		id := ids[12+(i*13)%116] // cold sweep
		if i%2 == 0 {
			id = ids[(i/2)%12] // hot set
		}
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
	return pool.Counters().Sub(base).HitRatio()
}

// TestTwoQSurvivesFlooding: with room for the hot set but not the sweep,
// plain recency (lru, and its clock approximation) loses the hot set to every
// pass of the cold sweep while 2Q's probation queue shields it; once the whole
// file is resident the policy no longer matters.
func TestTwoQSurvivesFlooding(t *testing.T) {
	for _, pages := range []int{16, 64} {
		q := floodingHitRatio(t, PoolKnobs{Pages: pages, Policy: "2q"})
		for _, policy := range []string{"lru", "clock"} {
			if r := floodingHitRatio(t, PoolKnobs{Pages: pages, Policy: policy}); q < r+0.01 {
				t.Errorf("%d pages: 2q hit ratio %.3f does not beat %s's %.3f under flooding", pages, q, policy, r)
			}
		}
	}
	all := floodingHitRatio(t, PoolKnobs{Pages: 256, Policy: "lru"})
	for _, policy := range []string{"clock", "2q"} {
		if r := floodingHitRatio(t, PoolKnobs{Pages: 256, Policy: policy}); r != all {
			t.Errorf("256 pages hold the whole file, yet %s hits %.3f and lru %.3f", policy, r, all)
		}
	}
}

// TestClockVictimPastHoles: holes that removed pages leave in the ring do
// not use up the sweep. Behind a run of eight holes, four referenced and
// unpinned pages still yield the first of them once its bit is cleared.
func TestClockVictimPastHoles(t *testing.T) {
	c := &clockPolicy{}
	for id := PageID(2); id < 14; id++ {
		c.admit(id)
	}
	for id := PageID(2); id < 10; id++ {
		c.remove(id)
	}
	for id := PageID(10); id < 14; id++ {
		c.touch(id)
	}
	if id, ok := c.victim(func(PageID) bool { return false }); !ok || id != 10 {
		t.Fatalf("victim = %d, %v; want 10, true", id, ok)
	}
}
