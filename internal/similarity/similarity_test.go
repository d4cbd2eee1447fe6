package similarity

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/distgen"
	"repro/internal/stats"
)

func TestKSIdentical(t *testing.T) {
	xs := []uint64{1, 2, 3, 4, 5}
	if d := KS(xs, xs); d != 0 {
		t.Fatalf("KS(x,x) = %v", d)
	}
}

func TestKSDisjoint(t *testing.T) {
	a := []uint64{1, 2, 3}
	b := []uint64{100, 200, 300}
	if d := KS(a, b); d != 1 {
		t.Fatalf("KS disjoint = %v, want 1", d)
	}
}

func TestKSEmpty(t *testing.T) {
	if KS(nil, nil) != 0 {
		t.Fatal("KS(nil,nil)")
	}
	if KS(nil, []uint64{1}) != 1 {
		t.Fatal("KS(nil,x)")
	}
}

func TestKSKnownValue(t *testing.T) {
	// a = {1,2}, b = {2,3}: CDF_a jumps to .5 at 1, 1 at 2.
	// CDF_b jumps to .5 at 2, 1 at 3. Max gap is 0.5 (at 1 and between 2,3).
	d := KS([]uint64{1, 2}, []uint64{2, 3})
	if math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func TestKSSymmetric(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		a := distgen.Keys(distgen.NewUniform(seedA, 0, 1000), 200)
		b := distgen.Keys(distgen.NewZipfKeys(seedB, 1.1, 500), 200)
		return math.Abs(KS(a, b)-KS(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKSBounds(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		a := distgen.Keys(distgen.NewNormal(seedA, 1e15, 1e13), 300)
		b := distgen.Keys(distgen.NewLognormal(seedB, 0, 2, 1e10), 300)
		d := KS(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKSSameDistributionSmall(t *testing.T) {
	a := distgen.Keys(distgen.NewUniform(1, 0, 1<<40), 5000)
	b := distgen.Keys(distgen.NewUniform(2, 0, 1<<40), 5000)
	if d := KS(a, b); d > 0.06 {
		t.Fatalf("KS between same-family samples = %v", d)
	}
}

func TestKSMonotoneInShift(t *testing.T) {
	// Shifting one uniform sample progressively further must not decrease KS.
	base := distgen.Keys(distgen.NewUniform(3, 0, 1000000), 3000)
	prev := -1.0
	for _, shift := range []uint64{0, 200000, 400000, 800000, 1600000} {
		shifted := make([]uint64, len(base))
		for i, k := range base {
			shifted[i] = k + shift
		}
		d := KS(base, shifted)
		if d < prev-0.02 {
			t.Fatalf("KS not monotone: shift %d gave %v after %v", shift, d, prev)
		}
		prev = d
	}
}

func TestMMDIdenticalNearZero(t *testing.T) {
	xs := distgen.Keys(distgen.NewUniform(4, 0, 1<<40), 300)
	if d := MMD(xs, xs, 0.1); d > 1e-7 {
		t.Fatalf("MMD(x,x) = %v", d)
	}
}

func TestMMDSeparatesDistributions(t *testing.T) {
	uni := distgen.NewUniform(5, 0, 1<<40)
	a := distgen.Keys(uni, 300)
	b := distgen.Keys(distgen.NewUniform(6, 0, 1<<40), 300)
	c := distgen.Keys(distgen.NewClustered(7, 3, 1e9), 300)
	same := MMD(a, b, 0)
	diff := MMD(a, c, 0)
	if diff <= same {
		t.Fatalf("MMD failed to separate: same=%v diff=%v", same, diff)
	}
}

func TestMMDEmpty(t *testing.T) {
	if MMD(nil, nil, 0) != 0 {
		t.Fatal("MMD(nil,nil)")
	}
	if MMD(nil, []uint64{1}, 0) != 1 {
		t.Fatal("MMD(nil,x)")
	}
}

func TestMMDSubBoundsWork(t *testing.T) {
	big := distgen.Keys(distgen.NewUniform(8, 0, 1<<40), 50000)
	small := distgen.Keys(distgen.NewClustered(9, 2, 1e8), 50000)
	d := MMDSub(big, small, 0, 200)
	if d <= 0 || math.IsNaN(d) {
		t.Fatalf("MMDSub = %v", d)
	}
}

func TestMMDConstantSamples(t *testing.T) {
	a := []uint64{5, 5, 5}
	b := []uint64{5, 5}
	if d := MMD(a, b, 0); d > 1e-7 {
		t.Fatalf("MMD over constant equal samples = %v", d)
	}
}

func TestMMDAgreesWithKSOnOrdering(t *testing.T) {
	// The paper only requires Φ estimators to sort distributions; check KS
	// and MMD agree on which of two candidates is closer to a baseline.
	base := distgen.Keys(distgen.NewUniform(10, 0, 1<<40), 400)
	near := distgen.Keys(distgen.NewNormal(11, float64(uint64(1)<<39), 1e11), 400) // broad, centered
	far := distgen.Keys(distgen.NewClustered(12, 2, 1e7), 400)                     // two spikes
	ksNear, ksFar := KS(base, near), KS(base, far)
	mmdNear, mmdFar := MMD(base, near, 0), MMD(base, far, 0)
	if (ksNear < ksFar) != (mmdNear < mmdFar) {
		t.Fatalf("orderings disagree: KS %v/%v, MMD %v/%v", ksNear, ksFar, mmdNear, mmdFar)
	}
}

func TestJaccard(t *testing.T) {
	set := func(ss ...string) map[string]struct{} {
		m := make(map[string]struct{})
		for _, s := range ss {
			m[s] = struct{}{}
		}
		return m
	}
	if j := Jaccard(set("a", "b"), set("a", "b")); j != 1 {
		t.Fatalf("equal sets = %v", j)
	}
	if j := Jaccard(set("a"), set("b")); j != 0 {
		t.Fatalf("disjoint = %v", j)
	}
	if j := Jaccard(set("a", "b", "c"), set("b", "c", "d")); math.Abs(j-0.5) > 1e-12 {
		t.Fatalf("half overlap = %v", j)
	}
	if Jaccard(nil, nil) != 1 {
		t.Fatal("empty sets must be similarity 1")
	}
	if Jaccard(set("a"), set("a")) != 1 {
		t.Fatal("similarity of equal sets")
	}
}

func TestTreeCanon(t *testing.T) {
	tr := NewTree("join",
		NewTree("scan", NewTree("A")),
		NewTree("filter", NewTree("scan", NewTree("B"))),
	)
	want := "join(scan(A),filter(scan(B)))"
	if got := tr.Canon(); got != want {
		t.Fatalf("canon = %q, want %q", got, want)
	}
}

func TestTreeSubtrees(t *testing.T) {
	tr := NewTree("a", NewTree("b"), NewTree("b"))
	set := make(map[string]struct{})
	tr.Subtrees(set)
	if len(set) != 2 { // "a(b,b)" and "b"
		t.Fatalf("subtree set = %v", set)
	}
}

func TestWorkloadJaccardOrdering(t *testing.T) {
	q1 := NewTree("join", NewTree("scan", NewTree("A")), NewTree("scan", NewTree("B")))
	q2 := NewTree("join", NewTree("scan", NewTree("A")), NewTree("scan", NewTree("C")))
	q3 := NewTree("agg", NewTree("scan", NewTree("Z")))
	wBase := []*Tree{q1}
	wNear := []*Tree{q2} // shares scan(A) subtree
	wFar := []*Tree{q3}  // shares nothing
	near := WorkloadJaccard(wBase, wNear)
	far := WorkloadJaccard(wBase, wFar)
	if near <= far {
		t.Fatalf("workload similarity ordering wrong: near=%v far=%v", near, far)
	}
	if s := WorkloadJaccard(wBase, wBase); s != 1 {
		t.Fatalf("self similarity = %v", s)
	}
	if d := WorkloadDistance(wBase, wFar); d != 1 {
		t.Fatalf("disjoint distance = %v", d)
	}
}

func TestKSDetectsDrift(t *testing.T) {
	// Integration-ish: KS between early and late samples of a drifting
	// distribution must exceed KS between two early samples.
	drift := distgen.NewBlend(13,
		distgen.NewUniform(14, 0, 1<<30),
		distgen.NewClustered(15, 3, 1e6))
	early1 := distgen.KeysAt(drift, 0.05, 1000)
	early2 := distgen.KeysAt(drift, 0.06, 1000)
	late := distgen.KeysAt(drift, 0.95, 1000)
	if KS(early1, late) <= KS(early1, early2) {
		t.Fatal("KS failed to detect drift")
	}
}

func TestSubsampleStride(t *testing.T) {
	xs := make([]uint64, 100)
	for i := range xs {
		xs[i] = uint64(i)
	}
	sub := subsample(xs, 10)
	if len(sub) != 10 {
		t.Fatalf("len = %d", len(sub))
	}
	for i := 1; i < len(sub); i++ {
		if sub[i] <= sub[i-1] {
			t.Fatal("subsample must preserve order")
		}
	}
	if got := subsample(xs, 200); len(got) != 100 {
		t.Fatal("oversized maxN must return input")
	}
}

var sinkF float64

func BenchmarkKS(b *testing.B) {
	a := distgen.Keys(distgen.NewUniform(1, 0, 1<<40), 10000)
	c := distgen.Keys(distgen.NewZipfKeys(2, 1.1, 5000), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = KS(a, c)
	}
}

func BenchmarkMMDSub(b *testing.B) {
	a := distgen.Keys(distgen.NewUniform(1, 0, 1<<40), 10000)
	c := distgen.Keys(distgen.NewZipfKeys(2, 1.1, 5000), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = MMDSub(a, c, 0, 200)
	}
}

// Guard against accidental use of the global rand: similarity must be pure.
func TestKSPure(t *testing.T) {
	a := distgen.Keys(distgen.NewUniform(1, 0, 1000), 100)
	b := distgen.Keys(distgen.NewUniform(2, 0, 1000), 100)
	d1 := KS(a, b)
	d2 := KS(a, b)
	if d1 != d2 {
		t.Fatal("KS not deterministic")
	}
	_ = stats.NewRNG(0) // keep import for build parity with other tests
}
