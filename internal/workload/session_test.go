package workload

import (
	"math"
	"testing"

	"repro/internal/distgen"
)

func sessionGaps(seed uint64, n int) []int64 {
	a := NewSessionArrival(seed, 2_000_000, 50_000, 3, 9)
	gaps := make([]int64, n)
	for i := range gaps {
		gaps[i] = a.NextGap(float64(i) / float64(n))
	}
	return gaps
}

func TestSessionArrivalDeterministic(t *testing.T) {
	a := sessionGaps(42, 5000)
	b := sessionGaps(42, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := sessionGaps(43, 5000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical gap streams")
	}
}

// TestSessionArrivalStructure also checks the two laws the gaps follow:
// session lengths uniform on MinOps..MaxOps (mean 6, standard deviation 2)
// and think gaps ThinkNs plus an exponential of mean ThinkNs/2 (mean
// 1.5·ThinkNs, standard deviation ThinkNs/2). An intra gap would be capped
// at 40 of its means, so the cap never bites. Both bounds are 4 standard
// errors over the completed sessions; seeds 1–500 all stayed inside them,
// the largest deviation 3.62 standard errors.
func TestSessionArrivalStructure(t *testing.T) {
	const think, intra = int64(2_000_000), int64(50_000)
	a := NewSessionArrival(7, think, intra, 3, 9)
	gaps := make([]int64, 20000)
	for i := range gaps {
		gaps[i] = a.NextGap(float64(i) / float64(len(gaps)))
	}
	// The two regimes must be separable by the think-time boundary — the
	// property SessionSpec segmentation relies on.
	if gaps[0] < think {
		t.Fatalf("first gap %d below think time %d", gaps[0], think)
	}
	sessions, length, lengthSum := 0, 0, 0
	var thinkSum float64
	for i, g := range gaps {
		if g >= think {
			if sessions > 0 && (length < 3 || length > 9) {
				t.Fatalf("session ending at op %d has %d ops, want 3..9", i, length)
			}
			if sessions > 0 {
				lengthSum += length
			}
			thinkSum += float64(g)
			sessions++
			length = 1
		} else {
			length++
		}
	}
	if sessions < len(gaps)/9 {
		t.Fatalf("only %d sessions over %d ops", sessions, len(gaps))
	}
	done := float64(sessions - 1) // the last session may be cut short
	if mean, se := float64(lengthSum)/done, 2/math.Sqrt(done); math.Abs(mean-6) > 4*se {
		t.Fatalf("mean session length %v, want 6 ± %v", mean, 4*se)
	}
	if mean, se := thinkSum/float64(sessions), 0.5*float64(think)/math.Sqrt(float64(sessions)); math.Abs(mean-1.5*float64(think)) > 4*se {
		t.Fatalf("mean think gap %v ns, want %v ± %v", mean, 1.5*float64(think), 4*se)
	}
	if spec := a.Spec(123); spec.GapNs != think || spec.BudgetNs != 123 {
		t.Fatalf("Spec = %+v", spec)
	}
}

func TestSessionArrivalRejectsBadParams(t *testing.T) {
	for _, tc := range []struct {
		think, intra   int64
		minOps, maxOps int
	}{
		{0, 1, 1, 1},
		{100, 0, 1, 1},
		{100, 100, 1, 1},
		{100, 10, 0, 1},
		{100, 10, 5, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSessionArrival(%+v) did not panic", tc)
				}
			}()
			NewSessionArrival(1, tc.think, tc.intra, tc.minOps, tc.maxOps)
		}()
	}
}

// TestSessionArrivalByteIdenticalAcrossBatches draws the same session-paced
// stream through GeneratorSource at several batch widths: the arrival
// process consumes one RNG draw pattern per position regardless of how
// Fill calls are sliced, so the gap stream is byte-identical.
func TestSessionArrivalByteIdenticalAcrossBatches(t *testing.T) {
	const total = 4000
	draw := func(batch int) ([]Op, []int64) {
		spec := Spec{Mix: Balanced, Access: distgen.Static{G: distgen.NewUniform(11, 0, 1<<30)}}
		src := NewSource(spec, NewSessionArrival(99, 1_000_000, 20_000, 2, 6), 5)
		ops := make([]Op, total)
		gaps := make([]int64, total)
		for pos := 0; pos < total; pos += batch {
			bn := batch
			if rest := total - pos; bn > rest {
				bn = rest
			}
			if n := src.Fill(ops[pos:pos+bn], gaps[pos:pos+bn], pos, total); n != bn {
				t.Fatalf("short fill at %d: %d", pos, n)
			}
		}
		return ops, gaps
	}
	refOps, refGaps := draw(1)
	for _, batch := range []int{7, 64, total} {
		ops, gaps := draw(batch)
		for i := range refGaps {
			if gaps[i] != refGaps[i] {
				t.Fatalf("batch %d: gap %d differs: %d vs %d", batch, i, gaps[i], refGaps[i])
			}
			if ops[i] != refOps[i] {
				t.Fatalf("batch %d: op %d differs", batch, i)
			}
		}
	}
}
