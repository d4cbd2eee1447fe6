package distgen

import (
	"testing"
)

func countBelow(ks []uint64, bound uint64) int {
	n := 0
	for _, k := range ks {
		if k < bound {
			n++
		}
	}
	return n
}

func TestStaticIgnoresProgress(t *testing.T) {
	d := Static{G: NewUniform(1, 0, 1000)}
	for _, p := range []float64{0, 0.5, 1} {
		for _, k := range KeysAt(d, p, 1000) {
			if k >= 1000 {
				t.Fatalf("static drift leaked key %d", k)
			}
		}
	}
}

func TestBlendEndpoints(t *testing.T) {
	lo := NewUniform(1, 0, 1000)
	hi := NewUniform(2, KeyDomain/2, KeyDomain/2+1000)
	b := NewBlend(3, lo, hi)
	if got := countBelow(KeysAt(b, 0, 2000), 1000); got < 1990 {
		t.Fatalf("progress 0 should be ~all Start, got %d/2000", got)
	}
	if got := countBelow(KeysAt(b, 1, 2000), 1000); got > 10 {
		t.Fatalf("progress 1 should be ~all End, got %d/2000 from Start", got)
	}
}

func TestBlendMidpointMixes(t *testing.T) {
	lo := NewUniform(1, 0, 1000)
	hi := NewUniform(2, KeyDomain/2, KeyDomain/2+1000)
	b := NewBlend(3, lo, hi)
	got := countBelow(KeysAt(b, 0.5, 4000), 1000)
	if got < 1600 || got > 2400 {
		t.Fatalf("midpoint blend share %d/4000, want ~2000", got)
	}
}

func TestBlendClampsProgress(t *testing.T) {
	lo := NewUniform(1, 0, 1000)
	hi := NewUniform(2, 2000, 3000)
	b := NewBlend(3, lo, hi)
	if got := countBelow(KeysAt(b, -1, 500), 1000); got != 500 {
		t.Fatalf("progress < 0 must clamp to Start, got %d/500", got)
	}
	if got := countBelow(KeysAt(b, 2, 500), 1000); got != 0 {
		t.Fatalf("progress > 1 must clamp to End, got %d from Start", got)
	}
}

func TestAbruptSwitch(t *testing.T) {
	lo := NewUniform(1, 0, 1000)
	hi := NewUniform(2, 2000, 3000)
	a := NewAbrupt(3, lo, hi, 0.5)
	if got := countBelow(KeysAt(a, 0.49, 1000), 1000); got != 1000 {
		t.Fatalf("pre-switch draws from End: %d", 1000-got)
	}
	if got := countBelow(KeysAt(a, 0.51, 1000), 1000); got != 0 {
		t.Fatalf("post-switch draws from Start: %d", got)
	}
}

func TestMovingHotspotMoves(t *testing.T) {
	m := NewMovingHotspot(4, 0.95, 0.05, 1)
	early := KeysAt(m, 0.1, 5000)
	late := KeysAt(m, 0.9, 5000)
	medianOf := func(ks []uint64) uint64 {
		s := append([]uint64(nil), ks...)
		for i := 1; i < len(s); i++ { // insertion sort is fine for medians via sort pkg instead
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[len(s)/2]
	}
	me, ml := medianOf(early[:501]), medianOf(late[:501])
	if ml <= me {
		t.Fatalf("hotspot did not move forward: early median %d, late %d", me, ml)
	}
}

func TestMovingHotspotHotMass(t *testing.T) {
	m := NewMovingHotspot(5, 0.9, 0.02, 1)
	ks := KeysAt(m, 0.25, 10000)
	winLo := uint64(0.25 * float64(KeyDomain))
	winHi := winLo + uint64(0.02*float64(KeyDomain))
	in := 0
	for _, k := range ks {
		if k >= winLo && k < winHi {
			in++
		}
	}
	if float64(in)/float64(len(ks)) < 0.8 {
		t.Fatalf("hot window mass %v, want >= 0.8", float64(in)/float64(len(ks)))
	}
}

func TestMovingHotspotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad params")
		}
	}()
	NewMovingHotspot(1, 2, 0.1, 1)
}

func TestGrowingSkewSharpens(t *testing.T) {
	g := NewGrowingSkew(6, 1.5, 10000)
	distinct := func(p float64) int {
		seen := map[uint64]bool{}
		for _, k := range KeysAt(g, p, 20000) {
			seen[k] = true
		}
		return len(seen)
	}
	d0, d1 := distinct(0), distinct(1)
	if d1 >= d0 {
		t.Fatalf("skew did not grow: distinct at p=0 %d, p=1 %d", d0, d1)
	}
}

// TestGrowingSkewOneKeyDrawsAdvance: one-key draws at a fixed progress off
// the 0.01 theta grid continue one stream. FillAt used to compare the raw
// theta with the quantized one it had stored, so every such call rebuilt and
// reseeded the sampler and returned the same key.
func TestGrowingSkewOneKeyDrawsAdvance(t *testing.T) {
	g := NewGrowingSkew(6, 1.2, 1<<16)
	seen := map[uint64]bool{}
	var key [1]uint64
	for i := 0; i < 1000; i++ {
		g.FillAt(0.37, key[:])
		seen[key[0]] = true
	}
	if len(seen) <= 100 {
		t.Fatalf("1000 one-key draws at p=0.37 yielded %d distinct keys", len(seen))
	}
}

func TestScheduleSegments(t *testing.T) {
	a := Static{G: NewUniform(1, 0, 1000)}
	b := Static{G: NewUniform(2, 2000, 3000)}
	s := NewSchedule(a, b)
	if got := countBelow(KeysAt(s, 0.25, 500), 1000); got != 500 {
		t.Fatalf("first half should use segment A, got %d", got)
	}
	if got := countBelow(KeysAt(s, 0.75, 500), 1000); got != 0 {
		t.Fatalf("second half should use segment B, got %d from A", got)
	}
	// progress == 1 must not index out of range
	KeysAt(s, 1, 10)
	KeysAt(s, -0.5, 10)
}

func TestSchedulePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty schedule")
		}
	}()
	NewSchedule()
}

func TestReplay(t *testing.T) {
	r := NewReplay([]uint64{10, 20, 30})
	got := KeysAt(r, 0.5, 5)
	want := []uint64{10, 20, 30, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if r.idx != 5%3 {
		t.Fatalf("position = %d, want the wrapped %d", r.idx, 5%3)
	}
	// Progress is irrelevant; the stream continues where it left off.
	if KeysAt(r, 0, 1)[0] != 30 {
		t.Fatal("replay did not continue")
	}
}

func TestReplayPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty trace")
		}
	}()
	NewReplay(nil)
}

func TestDriftNames(t *testing.T) {
	ds := []Drift{
		Static{G: NewUniform(1, 0, 10)},
		NewBlend(1, NewUniform(1, 0, 10), NewUniform(2, 0, 10)),
		NewAbrupt(1, NewUniform(1, 0, 10), NewUniform(2, 0, 10), 0.5),
		NewMovingHotspot(1, 0.9, 0.1, 2),
		NewGrowingSkew(1, 1.2, 100),
		NewSchedule(Static{G: NewUniform(1, 0, 10)}),
		NewReplay([]uint64{1}),
	}
	for _, d := range ds {
		if d.Name() == "" {
			t.Fatal("empty drift name")
		}
	}
}
