package alex

import (
	"testing"

	"repro/internal/distgen"
	"repro/internal/index"
	"repro/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, func() index.Ordered { return New() })
}

func TestNodeSplitting(t *testing.T) {
	ix := New()
	for k := uint64(0); k < 50000; k++ {
		ix.Insert(k, k)
	}
	if ix.NodeCount() < 2 {
		t.Fatalf("no splits after 50k inserts: %d nodes", ix.NodeCount())
	}
	if ix.Stats().TrainWork == 0 {
		t.Fatal("no retrain work recorded")
	}
	for _, k := range []uint64{0, 25000, 49999} {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) failed after splits", k)
		}
	}
}

func TestRoutingInvariant(t *testing.T) {
	ix := New()
	keys := distgen.Keys(distgen.NewZipfKeys(1, 1.1, 100000), 60000)
	for _, k := range keys {
		ix.Insert(k, k)
	}
	// lows must be ascending and every node's occupied keys must fall in
	// [lows[i], lows[i+1]).
	for i := 1; i < len(ix.lows); i++ {
		if ix.lows[i] <= ix.lows[i-1] {
			t.Fatalf("lows not ascending at %d", i)
		}
	}
	for i, n := range ix.nodes {
		lo := ix.lows[i]
		hi := ^uint64(0)
		if i+1 < len(ix.lows) {
			hi = ix.lows[i+1] - 1
		}
		keys, _ := logical(n)
		for s, k := range keys {
			if !n.occ.test(s) {
				continue
			}
			if k < lo || k > hi {
				t.Fatalf("node %d holds key %d outside [%d,%d]", i, k, lo, hi)
			}
		}
	}
}

func TestNodeOrderInvariant(t *testing.T) {
	ix := New()
	keys := distgen.Keys(distgen.NewClustered(2, 8, 1e7), 30000)
	for _, k := range keys {
		ix.Insert(k, k)
	}
	for ni, n := range ix.nodes {
		prev := uint64(0)
		first := true
		keys, _ := logical(n)
		for s, k := range keys {
			if !n.occ.test(s) {
				continue
			}
			if !first && k <= prev {
				t.Fatalf("node %d slot %d breaks order: %d after %d", ni, s, k, prev)
			}
			prev = k
			first = false
		}
	}
}

func TestAdaptsToDrift(t *testing.T) {
	// Bulk-load one region, then insert a flood from a new region; the
	// index must absorb it (splits) and stay correct.
	ix := New()
	base := distgen.UniqueKeys(distgen.NewUniform(3, 0, 1<<30), 20000)
	ix.BulkLoad(base, base)
	nodesBefore := ix.NodeCount()
	for k := uint64(1 << 50); k < (1<<50)+20000; k++ {
		ix.Insert(k, k)
	}
	if ix.NodeCount() <= nodesBefore {
		t.Fatal("index did not grow nodes for the new region")
	}
	if v, ok := ix.Get(1<<50 + 100); !ok || v != 1<<50+100 {
		t.Fatal("drifted key lost")
	}
	if v, ok := ix.Get(base[100]); !ok || v != base[100] {
		t.Fatal("original key lost after drift")
	}
}

func TestRetrainCompacts(t *testing.T) {
	ix := New()
	for k := uint64(0); k < 10000; k++ {
		ix.Insert(k*3, k)
	}
	for k := uint64(0); k < 10000; k += 2 {
		ix.Delete(k * 3)
	}
	if w := ix.Retrain(); w <= 0 {
		t.Fatalf("Retrain work = %d", w)
	}
	if ix.Len() != 5000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// All survivors reachable.
	for k := uint64(1); k < 10000; k += 2 {
		if v, ok := ix.Get(k * 3); !ok || v != k {
			t.Fatalf("Get(%d) after retrain = %d,%v", k*3, v, ok)
		}
	}
}

func TestModelCountGrows(t *testing.T) {
	ix := New()
	if ix.ModelCount() != 1 {
		t.Fatalf("fresh index ModelCount = %d", ix.ModelCount())
	}
	for k := uint64(0); k < 30000; k++ {
		ix.Insert(k, k)
	}
	if ix.ModelCount() < 2 {
		t.Fatal("ModelCount did not grow")
	}
}

func TestGappedInsertCheaperThanFull(t *testing.T) {
	// After a rebuild, the gapped array should accept nearby inserts
	// without long shift chains; we proxy-check via correctness under a
	// dense random-order load.
	ix := New()
	perm := make([]uint64, 20000)
	for i := range perm {
		perm[i] = uint64(i)
	}
	// Deterministic shuffle.
	r := uint64(12345)
	for i := len(perm) - 1; i > 0; i-- {
		r = r*6364136223846793005 + 1442695040888963407
		j := int(r % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, k := range perm {
		ix.Insert(k, k+1)
	}
	if ix.Len() != 20000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for k := uint64(0); k < 20000; k += 97 {
		if v, ok := ix.Get(k); !ok || v != k+1 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}
