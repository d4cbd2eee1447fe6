package metrics

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func constantCurve(n int, interval int64) *CumCurve {
	c := &CumCurve{}
	for i := 1; i <= n; i++ {
		c.Add(int64(i) * interval)
	}
	return c
}

func TestCumCurveBasics(t *testing.T) {
	c := constantCurve(10, 1e9)
	if c.Total() != 10 || c.Duration() != 10e9 || c.Len() != 10 {
		t.Fatalf("total=%d dur=%d len=%d", c.Total(), c.Duration(), c.Len())
	}
	if tp := c.Throughput(); math.Abs(tp-1) > 1e-9 {
		t.Fatalf("throughput = %v", tp)
	}
}

func TestCumCurveAt(t *testing.T) {
	c := constantCurve(10, 1e9)
	if c.At(0) != 0 {
		t.Fatal("At(0)")
	}
	if c.At(5e9) != 5 {
		t.Fatalf("At(5s) = %d", c.At(5e9))
	}
	if c.At(100e9) != 10 {
		t.Fatal("At beyond end")
	}
}

func TestCumCurvePanicsOnRegression(t *testing.T) {
	c := &CumCurve{}
	c.Add(100)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on decreasing time")
		}
	}()
	c.Add(50)
}

func TestAreaVsIdealConstantIsZero(t *testing.T) {
	c := constantCurve(1000, 1e6)
	if a := c.AreaVsIdeal(); math.Abs(a) > 0.01 {
		t.Fatalf("constant-rate area score = %v, want ~0", a)
	}
}

func TestAreaVsIdealSlowStartPositive(t *testing.T) {
	// Paper Fig 1b: "the SUT starts slow and later catches up" — area
	// difference vs ideal must be positive.
	c := &CumCurve{}
	tNow := int64(0)
	for i := 0; i < 500; i++ { // slow: 1 per 4ms
		tNow += 4e6
		c.Add(tNow)
	}
	for i := 0; i < 1500; i++ { // fast: 1 per 1ms
		tNow += 1e6
		c.Add(tNow)
	}
	if a := c.AreaVsIdeal(); a <= 0.05 {
		t.Fatalf("slow-start area score = %v, want clearly positive", a)
	}
}

func TestAreaVsIdealFastStartNegative(t *testing.T) {
	c := &CumCurve{}
	tNow := int64(0)
	for i := 0; i < 1500; i++ {
		tNow += 1e6
		c.Add(tNow)
	}
	for i := 0; i < 500; i++ {
		tNow += 4e6
		c.Add(tNow)
	}
	if a := c.AreaVsIdeal(); a >= -0.05 {
		t.Fatalf("fast-start area score = %v, want clearly negative", a)
	}
}

func TestAreaVsIdealEmpty(t *testing.T) {
	c := &CumCurve{}
	if c.AreaVsIdeal() != 0 {
		t.Fatal("empty curve score")
	}
}

func TestAreaBetweenOrdering(t *testing.T) {
	fast := constantCurve(2000, 1e6) // 1000 q/s
	slow := constantCurve(1000, 2e6) // 500 q/s
	if d := AreaBetween(fast, slow); d <= 0 {
		t.Fatalf("fast vs slow = %v, want positive", d)
	}
	if d := AreaBetween(slow, fast); d >= 0 {
		t.Fatalf("slow vs fast = %v, want negative", d)
	}
	if d := AreaBetween(fast, fast); d != 0 {
		t.Fatalf("self comparison = %v", d)
	}
}

func TestAreaBetweenEmpty(t *testing.T) {
	if AreaBetween(&CumCurve{}, constantCurve(10, 1e9)) != 0 {
		t.Fatal("empty comparison")
	}
}

func TestSlopeReflectsLocalThroughput(t *testing.T) {
	c := &CumCurve{}
	tNow := int64(0)
	for i := 0; i < 1000; i++ { // 1000 q/s for 1s
		tNow += 1e6
		c.Add(tNow)
	}
	for i := 0; i < 100; i++ { // 100 q/s for 1s
		tNow += 10e6
		c.Add(tNow)
	}
	early := c.Slope(1e9, 5e8)
	late := c.Slope(2e9, 5e8)
	if early < 900 || early > 1100 {
		t.Fatalf("early slope = %v", early)
	}
	if late < 80 || late > 120 {
		t.Fatalf("late slope = %v", late)
	}
	if c.Slope(1e9, 0) != 0 {
		t.Fatal("zero window must return 0")
	}
}

func TestDownsample(t *testing.T) {
	c := constantCurve(1000, 1e6)
	var times, counts []int64
	sample := func(n int) int {
		times, counts = times[:0], counts[:0]
		c.Sample(n, func(t, cnt int64) { times, counts = append(times, t), append(counts, cnt) })
		return len(times)
	}
	if n := sample(10); n != 10 {
		t.Fatalf("downsampled len = %d", n)
	}
	if counts[9] != c.Total() || times[9] != c.Duration() || counts[0] != 1 || times[0] != 1e6 {
		t.Fatal("downsample must preserve endpoints")
	}
	for i, cnt := range counts {
		if times[i] != cnt*1e6 {
			t.Fatalf("point %d is (%d, %d), not on the curve", i, times[i], cnt)
		}
	}
	// Every point when already small.
	if sample(10000) != 1000 || sample(0) != 1000 {
		t.Fatal("oversized downsample changed length")
	}
}

func TestPointsIteration(t *testing.T) {
	c := constantCurve(5, 1e9)
	var n int
	var lastT, lastC int64
	c.Points(func(tm, cnt int64) {
		if tm < lastT || cnt < lastC {
			t.Fatal("points out of order")
		}
		lastT, lastC = tm, cnt
		n++
	})
	if n != 5 {
		t.Fatalf("visited %d points", n)
	}
}

func TestAreaVsIdealBounded(t *testing.T) {
	// Randomized completion patterns must keep the score in [-1, 1].
	r := stats.NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		c := &CumCurve{}
		tNow := int64(0)
		for i := 0; i < 500; i++ {
			tNow += int64(1 + r.Intn(1000))
			c.Add(tNow)
		}
		a := c.AreaVsIdeal()
		if a < -1 || a > 1 {
			t.Fatalf("score out of range: %v", a)
		}
	}
}
