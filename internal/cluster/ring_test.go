package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	build := func() *Ring {
		r := NewRing(64)
		// Insertion order must not matter.
		for _, n := range []string{"b", "a", "c"} {
			r.Add(n)
		}
		return r
	}
	r1, r2 := build(), build()
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("c%d", i)
		o1, ok1 := r1.Owner(key)
		o2, ok2 := r2.Owner(key)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("key %s: owners diverge (%s vs %s)", key, o1, o2)
		}
	}
}

func TestRingCoversAllNodes(t *testing.T) {
	r := NewRing(64)
	nodes := []string{"n1", "n2", "n3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := make(map[string]int)
	for i := 0; i < 3000; i++ {
		owner, ok := r.Owner(fmt.Sprintf("c%d", i))
		if !ok {
			t.Fatal("empty ring?")
		}
		counts[owner]++
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no keys: %v", n, counts)
		}
	}
}

// TestRingMinimalDisruption is consistent hashing's defining property:
// removing a node re-routes only that node's keys.
func TestRingMinimalDisruption(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"n1", "n2", "n3"} {
		r.Add(n)
	}
	before := make(map[string]string)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("c%d", i)
		before[key], _ = r.Owner(key)
	}
	r.Remove("n2")
	for key, owner := range before {
		after, ok := r.Owner(key)
		if !ok {
			t.Fatal("ring emptied")
		}
		if owner != "n2" && after != owner {
			t.Fatalf("key %s moved %s→%s though %s stayed up", key, owner, after, owner)
		}
		if owner == "n2" && after == "n2" {
			t.Fatalf("key %s still owned by removed node", key)
		}
	}

	// Empty ring answers not-ok rather than a stale owner.
	r.Remove("n1")
	r.Remove("n3")
	if _, ok := r.Owner("c0"); ok {
		t.Fatal("empty ring returned an owner")
	}
}

func TestRingIdempotentMembership(t *testing.T) {
	r := NewRing(8)
	r.Add("n1")
	r.Add("n1")
	if got := len(r.points); got != 8 {
		t.Fatalf("double add left %d points, want 8", got)
	}
	r.Remove("nope")
	if r.Len() != 1 || !r.nodes["n1"] {
		t.Fatalf("membership wrong after no-op remove: %v", r.Nodes())
	}
}

// TestRingDispersesSequentialIDs pins the splitmix64 finalizer in
// ringHash: coordinator job IDs are sequential ("c1", "c2", …), and bare
// FNV would cluster them all onto one node's arc.
func TestRingDispersesSequentialIDs(t *testing.T) {
	r := NewRing(64)
	r.Add("http://127.0.0.1:40001")
	r.Add("http://127.0.0.1:40002")
	counts := make(map[string]int)
	for i := 1; i <= 40; i++ {
		owner, ok := r.Owner(fmt.Sprintf("c%d", i))
		if !ok {
			t.Fatal("no owner")
		}
		counts[owner]++
	}
	if len(counts) != 2 {
		t.Fatalf("40 sequential job IDs all placed on one node: %v", counts)
	}
}
